package probe

import (
	"net/netip"
	"testing"
	"time"

	"recordroute/internal/topology"
)

// testbed builds a small generated Internet and a prober on its first
// M-Lab vantage point that is not behind a source-proximate policer
// (the calibrated config deliberately rate-limits the first few).
func testbed(t *testing.T) (*topology.Topology, *Prober, *topology.VP) {
	t.Helper()
	topo := topology.MustBuild(topology.DefaultConfig(topology.Epoch2016).Scale(0.15))
	var vp *topology.VP
	for _, v := range topo.VPs {
		if !v.SourceRateLimited && !topo.ASes[v.ASIdx].FilterOptions {
			vp = v
			break
		}
	}
	if vp == nil {
		t.Fatal("no unlimited VP")
	}
	p := New(NewSimTransport(vp.Host, topo.Net.Engine()), 0x7a01)
	return topo, p, vp
}

// pickDests returns up to n ground-truth fully-responsive destinations.
func pickDests(topo *topology.Topology, n int) []*topology.Dest {
	var out []*topology.Dest
	for _, d := range topo.Dests {
		if d.GTPingResponsive && !d.GTRRDrop && !d.GTNoHonorRR && !d.GTAlias.IsValid() &&
			!topo.ASes[d.ASIdx].FilterOptions {
			out = append(out, d)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func TestBatchPingRRAgainstGeneratedInternet(t *testing.T) {
	topo, p, _ := testbed(t)
	dests := pickDests(topo, 20)
	if len(dests) < 5 {
		t.Fatalf("only %d responsive dests", len(dests))
	}
	specs := make([]Spec, len(dests))
	for i, d := range dests {
		specs[i] = Spec{Dst: d.Addr, Kind: PingRR}
	}
	var results []Result
	p.StartBatch(specs, Options{Rate: 100}, func(rs []Result) { results = rs })
	topo.Net.Engine().Run()

	if results == nil {
		t.Fatal("batch never completed")
	}
	for i, r := range results {
		if r.Type != EchoReply {
			t.Errorf("dest %v: response %v, want echo reply", dests[i].Addr, r.Type)
			continue
		}
		if !r.HasRR {
			t.Errorf("dest %v: reply lacks RR", dests[i].Addr)
			continue
		}
		if len(r.RR) == 0 {
			t.Errorf("dest %v: empty RR", dests[i].Addr)
		}
		if r.RTT() <= 0 {
			t.Errorf("dest %v: non-positive RTT %v", dests[i].Addr, r.RTT())
		}
		// Reachability: if slots remained, the destination must appear.
		if !r.RRFull && !r.RRContains(dests[i].Addr) {
			t.Errorf("dest %v within range but absent from RR %v", dests[i].Addr, r.RR)
		}
	}
}

func TestUnresponsiveDestTimesOut(t *testing.T) {
	topo, p, _ := testbed(t)
	var dead *topology.Dest
	for _, d := range topo.Dests {
		if !d.GTPingResponsive {
			dead = d
			break
		}
	}
	if dead == nil {
		t.Fatal("no unresponsive dest in topology")
	}
	var res *Result
	p.StartOne(Spec{Dst: dead.Addr, Kind: Ping}, time.Second, func(r Result) { res = &r })
	topo.Net.Engine().Run()
	if res == nil {
		t.Fatal("done never called")
	}
	if res.Type != NoResponse {
		t.Errorf("response %v, want timeout", res.Type)
	}
	_, _, timedOut, _ := p.Stats()
	if timedOut != 1 {
		t.Errorf("timedOut = %d", timedOut)
	}
}

func TestTTLPingElicitsTimeExceeded(t *testing.T) {
	topo, p, vp := testbed(t)
	d := pickDests(topo, 1)[0]
	var res *Result
	p.StartOne(Spec{Dst: d.Addr, Kind: TTLPing, TTL: 1}, time.Second, func(r Result) { res = &r })
	topo.Net.Engine().Run()
	if res == nil || res.Type != TimeExceeded {
		t.Fatalf("result = %+v, want time exceeded", res)
	}
	// The error source is the VP's first-hop router, an infra address
	// of the VP's own AS.
	if topo.ASOf(res.From) != vp.ASIdx {
		t.Errorf("time exceeded from %v (as%d), want first hop in as%d",
			res.From, topo.ASOf(res.From), vp.ASIdx)
	}
}

func TestTTLPingRRRecoversQuotedRR(t *testing.T) {
	topo, p, _ := testbed(t)
	d := pickDests(topo, 1)[0]
	var res *Result
	p.StartOne(Spec{Dst: d.Addr, Kind: TTLPingRR, TTL: 2}, time.Second, func(r Result) { res = &r })
	topo.Net.Engine().Run()
	if res == nil || res.Type != TimeExceeded {
		t.Fatalf("result = %+v, want time exceeded", res)
	}
	if !res.HasRR || !res.QuotedRR {
		t.Fatalf("quoted RR not recovered: %+v", res)
	}
	// A TTL-2 probe is stamped at most once (by the first-hop router,
	// which may itself be a non-stamping router) before expiring at the
	// second.
	if len(res.RR) > 1 {
		t.Errorf("quoted RR has %d hops, want <= 1: %v", len(res.RR), res.RR)
	}
}

// TestTTLPingRRExpiresAtDestinationHop pins the boundary the
// doubletree forward phase depends on: a probe whose TTL equals the
// destination's hop distance is answered by the destination itself
// (an echo reply carrying RR stamps), while one hop less expires at
// the final router with a readable quoted RR.
func TestTTLPingRRExpiresAtDestinationHop(t *testing.T) {
	topo, p, _ := testbed(t)
	d := pickDests(topo, 1)[0]

	// Find the path length L: the smallest TTL whose probe the
	// destination answers.
	pathLen := uint8(0)
	for ttl := uint8(1); ttl <= 30; ttl++ {
		var res *Result
		p.StartOne(Spec{Dst: d.Addr, Kind: TTLPing, TTL: ttl}, time.Second, func(r Result) { res = &r })
		topo.Net.Engine().Run()
		if res == nil {
			t.Fatalf("TTL %d probe never completed", ttl)
		}
		if res.Type == EchoReply {
			pathLen = ttl
			break
		}
		if res.Type != TimeExceeded {
			t.Fatalf("TTL %d: result %v, want time exceeded en route", ttl, res.Type)
		}
	}
	if pathLen < 2 {
		t.Fatalf("destination %v at path length %d, want >= 2", d.Addr, pathLen)
	}

	// TTL == L: the destination is the expiring hop and must reply
	// itself — an echo reply, not a time exceeded — with RR stamps.
	var atDest *Result
	p.StartOne(Spec{Dst: d.Addr, Kind: TTLPingRR, TTL: pathLen}, time.Second, func(r Result) { atDest = &r })
	topo.Net.Engine().Run()
	if atDest == nil || atDest.Type != EchoReply {
		t.Fatalf("TTL==L result = %+v, want echo reply from the destination", atDest)
	}
	if atDest.From != d.Addr {
		t.Errorf("TTL==L reply from %v, want destination %v", atDest.From, d.Addr)
	}
	if !atDest.HasRR || len(atDest.RR) == 0 {
		t.Errorf("TTL==L reply lacks RR stamps: %+v", atDest)
	}

	// TTL == L-1: expires at the last router before the destination,
	// whose time exceeded quotes the probe's RR option.
	var before *Result
	p.StartOne(Spec{Dst: d.Addr, Kind: TTLPingRR, TTL: pathLen - 1}, time.Second, func(r Result) { before = &r })
	topo.Net.Engine().Run()
	if before == nil || before.Type != TimeExceeded {
		t.Fatalf("TTL==L-1 result = %+v, want time exceeded", before)
	}
	if before.From == d.Addr {
		t.Error("TTL==L-1 error came from the destination itself")
	}
	if !before.QuotedRR {
		t.Errorf("TTL==L-1 quote does not carry the RR option: %+v", before)
	}
}

func TestPingRRUDPElicitsPortUnreachable(t *testing.T) {
	topo, p, _ := testbed(t)
	var dest *topology.Dest
	for _, d := range topo.Dests {
		if d.GTUDPResponsive && !d.GTRRDrop && !topo.ASes[d.ASIdx].FilterOptions {
			dest = d
			break
		}
	}
	if dest == nil {
		t.Fatal("no UDP-responsive dest")
	}
	var res *Result
	p.StartOne(Spec{Dst: dest.Addr, Kind: PingRRUDP}, time.Second, func(r Result) { res = &r })
	topo.Net.Engine().Run()
	if res == nil || res.Type != PortUnreachable {
		t.Fatalf("result = %+v, want port unreachable", res)
	}
	if !res.HasRR || !res.QuotedRR {
		t.Fatalf("quoted RR missing: %+v", res)
	}
	// The quote shows the option as it arrived: stamped by forward
	// routers only, never by the destination.
	if res.RRContains(dest.Addr) {
		t.Errorf("quoted RR contains the destination: %v", res.RR)
	}
}

func TestBatchPacingSpreadsSends(t *testing.T) {
	topo, p, _ := testbed(t)
	dests := pickDests(topo, 10)
	specs := make([]Spec, len(dests))
	for i, d := range dests {
		specs[i] = Spec{Dst: d.Addr, Kind: Ping}
	}
	var results []Result
	p.StartBatch(specs, Options{Rate: 10}, func(rs []Result) { results = rs })
	topo.Net.Engine().Run()
	if results == nil {
		t.Fatal("batch never completed")
	}
	for i := 1; i < len(results); i++ {
		gap := results[i].SentAt - results[i-1].SentAt
		if gap != 100*time.Millisecond {
			t.Errorf("send gap %d = %v, want 100ms", i, gap)
		}
	}
}

func TestStartOneChaining(t *testing.T) {
	// A miniature traceroute: increase TTL until the destination
	// answers, chaining StartOne calls from callbacks.
	topo, p, vp := testbed(t)
	d := pickDests(topo, 1)[0]
	var hops []netip.Addr
	var reached bool
	var step func(ttl uint8)
	step = func(ttl uint8) {
		p.StartOne(Spec{Dst: d.Addr, Kind: TTLPing, TTL: ttl}, time.Second, func(r Result) {
			switch r.Type {
			case TimeExceeded:
				hops = append(hops, r.From)
				if ttl < 32 {
					step(ttl + 1)
				}
			case EchoReply:
				reached = true
			}
		})
	}
	step(1)
	topo.Net.Engine().Run()
	if !reached {
		t.Fatalf("never reached %v; hops %v", d.Addr, hops)
	}
	if len(hops) == 0 {
		t.Fatal("no intermediate hops")
	}
	// Hop ASes must appear in path order.
	asPath := topo.Routes.Path(vp.ASIdx, d.ASIdx)
	pos := map[int]int{}
	for i, a := range asPath {
		pos[a] = i
	}
	last := 0
	for _, h := range hops {
		if pi, ok := pos[topo.ASOf(h)]; ok {
			if pi < last {
				t.Errorf("hops out of AS order: %v", hops)
				break
			}
			last = pi
		}
	}
}

func TestDistinctProbersDoNotCrossMatch(t *testing.T) {
	topo := topology.MustBuild(topology.DefaultConfig(topology.Epoch2016).Scale(0.15))
	d := func() *topology.Dest {
		for _, d := range topo.Dests {
			if d.GTPingResponsive && !topo.ASes[d.ASIdx].FilterOptions {
				return d
			}
		}
		return nil
	}()
	pa := New(NewSimTransport(topo.VPs[0].Host, topo.Net.Engine()), 0x0a0a)
	pb := New(NewSimTransport(topo.VPs[1].Host, topo.Net.Engine()), 0x0b0b)
	var ra, rb *Result
	pa.StartOne(Spec{Dst: d.Addr, Kind: Ping}, time.Second, func(r Result) { ra = &r })
	pb.StartOne(Spec{Dst: d.Addr, Kind: Ping}, time.Second, func(r Result) { rb = &r })
	topo.Net.Engine().Run()
	if ra == nil || rb == nil {
		t.Fatal("a batch never completed")
	}
	if ra.Type != EchoReply || rb.Type != EchoReply {
		t.Errorf("responses %v / %v", ra.Type, rb.Type)
	}
}

func TestEmptyBatchCompletes(t *testing.T) {
	topo, p, _ := testbed(t)
	called := false
	p.StartBatch(nil, Options{}, func(rs []Result) { called = rs == nil })
	topo.Net.Engine().Run()
	if !called {
		t.Error("empty batch did not complete")
	}
}

// indexedBatch is specs as a generated batch.
func indexedBatch(specs []IndexedSpec) Batch {
	return Batch{N: len(specs), Gen: func(i int) IndexedSpec { return specs[i] }}
}

// TestRoundsBatchLandsDestinationMajor: a generated round-major batch
// with Rounds set sends exactly what the same specs send as a slice —
// same seqs, same send times — and hands its results back regrouped per
// destination: round r of destination d at d*Rounds + r.
func TestRoundsBatchLandsDestinationMajor(t *testing.T) {
	const rounds = 3
	topoA, pa, _ := testbed(t)
	dests := pickDests(topoA, 7)
	specs := make([]Spec, 0, rounds*len(dests))
	for r := 0; r < rounds; r++ {
		for _, d := range dests {
			specs = append(specs, Spec{Dst: d.Addr, Kind: Ping})
		}
	}
	var want []Result
	pa.StartBatch(specs, Options{Rate: 100}, func(rs []Result) { want = rs })
	topoA.Net.Engine().Run()

	topoB, pb, _ := testbed(t)
	var got []Result
	pb.Start(Batch{N: len(specs), Rounds: rounds, Gen: func(i int) IndexedSpec {
		return IndexedSpec{Index: i, Spec: specs[i]}
	}}, Options{Rate: 100}, func(rs []Result) { got = rs })
	topoB.Net.Engine().Run()

	if len(want) != len(specs) || len(got) != len(specs) {
		t.Fatalf("batches resolved %d and %d of %d probes", len(want), len(got), len(specs))
	}
	for i, w := range want {
		r, d := i/len(dests), i%len(dests)
		if g := got[d*rounds+r]; g.Dst != w.Dst || g.Seq != w.Seq || g.SentAt != w.SentAt || g.RcvdAt != w.RcvdAt || g.Type != w.Type {
			t.Errorf("round %d of destination %d: generated %+v != slice %+v", r, d, g, w)
		}
	}
}

// TestIndexedBatchShardsEqualUnsplit: splitting a batch into contiguous
// index ranges run on separate (identically built) networks yields
// per-destination results identical to the unsplit batch — send times
// and sequence numbers derive from the global index, retransmissions
// included.
func TestIndexedBatchShardsEqualUnsplit(t *testing.T) {
	opts := Options{Rate: 200, Retries: 1}
	build := func(lo, hi int) []Result {
		topo, p, _ := testbed(t)
		n := 150
		if len(topo.Dests) < n {
			n = len(topo.Dests)
		}
		if hi > n {
			hi = n
		}
		specs := make([]IndexedSpec, 0, hi-lo)
		for g := lo; g < hi; g++ {
			specs = append(specs, IndexedSpec{Index: g, Spec: Spec{Dst: topo.Dests[g].Addr, Kind: Ping}})
		}
		var rs []Result
		p.Start(indexedBatch(specs), opts, func(out []Result) { rs = out })
		topo.Net.Engine().Run()
		if rs == nil {
			t.Fatalf("indexed batch [%d,%d) never completed", lo, hi)
		}
		return rs
	}

	full := build(0, 1<<30)
	n := len(full)
	cut := n / 2
	low, high := build(0, cut), build(cut, n)
	merged := append(append([]Result(nil), low...), high...)

	sawTimeout := false
	for g := range full {
		w, m := full[g], merged[g]
		if m.Seq != w.Seq || m.SentAt != w.SentAt || m.RcvdAt != w.RcvdAt ||
			m.Type != w.Type || m.From != w.From || m.ReplyIPID != w.ReplyIPID {
			t.Errorf("dest %d: sharded %+v != unsplit %+v", g, m, w)
		}
		if w.Type == NoResponse {
			sawTimeout = true
			if wantSeq := uint16(2*g + 1); w.Seq != wantSeq {
				t.Errorf("dest %d final attempt seq = %d, want %d", g, w.Seq, wantSeq)
			}
		}
	}
	if !sawTimeout {
		t.Error("no unresponsive destination exercised the retransmit path")
	}
}

// TestPingLSRRRefusedOnModernInternet sends a loose-source-routed ping
// through an observed router hop: on the default (modern) topology no
// router honors it, reproducing the 2005 "IP options are not an
// option" result for source routing — in contrast to ping-RR.
func TestPingLSRRRefusedOnModernInternet(t *testing.T) {
	topo, p, _ := testbed(t)
	d := pickDests(topo, 1)[0]
	// Learn a router on the path via ping-RR first.
	var rr *Result
	p.StartOne(Spec{Dst: d.Addr, Kind: PingRR}, time.Second, func(r Result) { rr = &r })
	topo.Net.Engine().Run()
	if rr == nil || !rr.HasRR || len(rr.RR) == 0 {
		t.Fatal("no RR hops to route through")
	}
	via := rr.RR[0]
	var res *Result
	p.StartOne(Spec{Dst: d.Addr, Kind: PingLSRR, Via: []netip.Addr{via}}, time.Second, func(r Result) { res = &r })
	topo.Net.Engine().Run()
	if res == nil {
		t.Fatal("probe unresolved")
	}
	if res.Type == EchoReply {
		// Only possible if the via router is one of the rare legacy
		// honorers; the default config has none.
		t.Errorf("source-routed ping succeeded via %v", via)
	}
	if got := topo.Net.Counter("router.drop.sourceroute"); got == 0 {
		t.Error("no source-route refusal recorded")
	}
}
