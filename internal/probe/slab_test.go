package probe

import (
	"bytes"
	"math/rand"
	"net/netip"
	"runtime/debug"
	"testing"
	"time"

	"recordroute/internal/netsim"
	"recordroute/internal/packet"
)

// TestSeqTableMatchesMap drives the open-addressed sequence table and a
// Go map through the same 400k random operations. Keys come in the
// shapes a prober produces — a counter's consecutive run that wraps at
// 2^16, an indexed batch's strided run, stragglers — so runs collide,
// wrap around the table's end and are cut by deletions in the middle,
// which is everything backward-shift deletion has to get right.
func TestSeqTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var tab seqTable
	ref := make(map[uint16]int32)
	var live []uint16 // keys of ref, for picking a victim
	next := uint16(65000)
	check := func(step int, seq uint16) {
		want, ok := ref[seq]
		if !ok {
			want = -1
		}
		if got := tab.get(seq); got != want {
			t.Fatalf("step %d: get(%d) = %d, map says %d", step, seq, got, want)
		}
	}
	const steps = 400_000
	for step := 0; step < steps; step++ {
		// Swing the population between near-empty and a few thousand so
		// the table grows and long runs form and dissolve.
		target := 40 + 3000*((step/50_000)%2)
		switch r := rng.Intn(100); {
		case r < 50 && len(live) < 2*target || len(live) < target/2:
			var seq uint16
			switch rng.Intn(4) {
			case 0, 1:
				seq, next = next, next+1
			case 2:
				seq = uint16(rng.Intn(200) * 3 * 64) // strided, colliding homes
			default:
				seq = uint16(rng.Intn(1 << 16))
			}
			if _, busy := ref[seq]; busy {
				continue
			}
			slot := int32(rng.Intn(1 << 20))
			tab.put(seq, slot)
			ref[seq] = slot
			live = append(live, seq)
		case r < 90 && len(live) > 0:
			i := rng.Intn(len(live))
			if rng.Intn(3) > 0 {
				i = i * rng.Intn(len(live)) / len(live) // favour the oldest, as probes resolve
			}
			seq := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			tab.del(seq)
			delete(ref, seq)
			check(step, seq)
		default:
			seq := uint16(rng.Intn(1 << 16))
			if _, ok := ref[seq]; !ok {
				tab.del(seq) // deleting an absent key changes nothing
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: table holds %d, map %d", step, tab.n, len(ref))
		}
		check(step, uint16(rng.Intn(1<<16)))
		check(step, next-uint16(rng.Intn(64)))
		if step%20_000 == 0 {
			for seq := 0; seq < 1<<16; seq++ {
				check(step, uint16(seq))
			}
		}
	}
	for _, seq := range live {
		tab.del(seq)
	}
	for i, e := range tab.e {
		if e.slot != 0 {
			t.Fatalf("bucket %d still holds seq %d after every key was deleted", i, e.seq)
		}
	}
}

// replyTo builds what the network would answer a captured probe with: an
// echo reply from the destination, a time-exceeded error quoting the
// probe when its TTL was cut, or the destination's port-unreachable for
// a UDP probe.
func replyTo(t *testing.T, wire []byte) []byte {
	t.Helper()
	var ip packet.IPv4
	payload, err := ip.Decode(wire)
	if err != nil {
		t.Fatalf("decode probe: %v", err)
	}
	if ip.Protocol == packet.ProtocolICMP && ip.TTL == DefaultTTL {
		return echoReplyFor(t, wire)
	}
	hdrLen := len(wire) - len(payload)
	from, typ, code := netip.MustParseAddr("203.0.113.1"), packet.ICMPTimeExceeded, uint8(0)
	if ip.Protocol == packet.ProtocolUDP {
		from, typ, code = ip.Dst, packet.ICMPDestUnreach, packet.CodePortUnreachable
	}
	hdr := packet.IPv4{TTL: 64, ID: 77, Protocol: packet.ProtocolICMP, Src: from, Dst: ip.Src}
	out, err := hdr.Marshal(packet.NewError(typ, code, wire[:hdrLen], wire[hdrLen:]).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// scriptedProbe is one logical probe of the interleaving test: what the
// network will do to each of its attempts, and what must come of it.
type scriptedProbe struct {
	kind        Kind
	timeout     time.Duration
	maxAttempts int
	firstAt     time.Duration   // when attempt 1 must leave
	delay       []time.Duration // per attempt: reply delay; 0 loses the attempt
	dup         []bool          // per attempt: the reply arrives twice

	sends, dones int

	// predicted
	wantAt       time.Duration
	wantType     ResponseType
	wantMatched  int
	wantAttempts int
}

// predict works out how the probe must resolve. Reply delays are never
// whole milliseconds and timeouts always are, so no reply ties a timer.
func (s *scriptedProbe) predict() {
	var best time.Duration
	at := s.firstAt
	for k := 1; k <= s.maxAttempts; k++ {
		if s.wantMatched != 0 && best < at {
			break // answered before this attempt was due
		}
		s.wantAttempts = k
		if d := s.delay[k-1]; d > 0 && (s.wantMatched == 0 || at+d < best) {
			best, s.wantMatched = at+d, k
		}
		at += s.timeout << (k - 1)
	}
	if s.wantMatched != 0 && best < at {
		s.wantAt = best
		switch s.kind {
		case TTLPing:
			s.wantType = TimeExceeded
		case PingRRUDP:
			s.wantType = PortUnreachable
		default:
			s.wantType = EchoReply
		}
		return
	}
	s.wantAt, s.wantType, s.wantMatched = at, NoResponse, 0
}

// TestProberRandomInterleavings starts single probes, batches, sparsely
// indexed batches and expectations at random — from timers and re-entrantly from
// done callbacks — against a network that loses, delays past the timeout
// and duplicates replies, and holds every probe to the outcome its
// script predicts: resolved exactly once, at the predicted instant, by
// the predicted attempt, after exactly the predicted transmissions at
// the predicted times. A stale timer acting on a recycled slot would
// retransmit or time out some other probe early and break its
// prediction. At quiescence nothing is outstanding and every slab slot
// is back on its free list.
func TestProberRandomInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		runInterleaving(t, seed)
	}
}

func runInterleaving(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tr := newScriptedTransport()
	p := New(tr, 0x5151)
	probes := make(map[netip.Addr]*scriptedProbe)
	budget := 1200 // logical probes still to start
	delivered := 0

	// script invents a probe leaving at firstAt and returns its spec.
	script := func(firstAt, timeout time.Duration, maxAttempts int) Spec {
		s := &scriptedProbe{
			kind:        []Kind{Ping, PingRR, TTLPing, PingRRUDP}[rng.Intn(4)],
			timeout:     timeout,
			maxAttempts: maxAttempts,
			firstAt:     firstAt,
		}
		for k := 0; k < maxAttempts; k++ {
			var d time.Duration
			if rng.Intn(3) > 0 {
				ms := int(timeout / time.Millisecond)
				d = time.Duration(rng.Intn(3*ms))*time.Millisecond + time.Duration(1+rng.Intn(999))*time.Microsecond
			}
			s.delay = append(s.delay, d)
			s.dup = append(s.dup, rng.Intn(4) == 0)
		}
		s.predict()
		n := len(probes) + 1
		dst := netip.AddrFrom4([4]byte{198, 51, byte(n >> 8), byte(n)})
		probes[dst] = s
		budget--
		spec := Spec{Dst: dst, Kind: s.kind}
		if s.kind == TTLPing {
			spec.TTL = uint8(1 + rng.Intn(30))
		}
		return spec
	}

	var resolved func(r Result)
	var startSomething func()
	resolved = func(r Result) {
		s := probes[r.Dst]
		s.dones++
		now := tr.eng.Now()
		if s.dones > 1 {
			t.Fatalf("seed %d: probe to %v resolved %d times", seed, r.Dst, s.dones)
		}
		if now != s.wantAt || r.Type != s.wantType || r.MatchedAttempt != s.wantMatched || r.Attempts != s.wantAttempts {
			t.Fatalf("seed %d: probe to %v resolved at %v as %v by attempt %d of %d, script says %v %v %d of %d",
				seed, r.Dst, now, r.Type, r.MatchedAttempt, r.Attempts, s.wantAt, s.wantType, s.wantMatched, s.wantAttempts)
		}
		if s.sends != s.wantAttempts {
			t.Fatalf("seed %d: probe to %v resolved after %d transmissions, script says %d", seed, r.Dst, s.sends, s.wantAttempts)
		}
		if r.SentAt != s.firstAt+s.sentOffset(r) {
			t.Fatalf("seed %d: probe to %v SentAt %v, script says %v", seed, r.Dst, r.SentAt, s.firstAt+s.sentOffset(r))
		}
		if rng.Intn(3) == 0 {
			startSomething() // re-entrantly, on the slots this probe just gave back
		}
	}
	batchDone := func(n int) func([]Result) {
		return func(rs []Result) {
			if len(rs) != n {
				t.Fatalf("seed %d: batch of %d returned %d results", seed, n, len(rs))
			}
			for _, r := range rs {
				if probes[r.Dst].dones != 0 {
					t.Fatalf("seed %d: batch reports %v twice", seed, r.Dst)
				}
			}
			for _, r := range rs {
				// A batch's probes resolve when their slot fills; the
				// callback only proves each did, once. Check each against
				// its script except for the instant.
				s := probes[r.Dst]
				s.dones++
				if r.Type != s.wantType || r.MatchedAttempt != s.wantMatched || r.Attempts != s.wantAttempts || s.sends != s.wantAttempts {
					t.Fatalf("seed %d: batch probe to %v: %v by attempt %d of %d after %d sends, script says %v %d of %d",
						seed, r.Dst, r.Type, r.MatchedAttempt, r.Attempts, s.sends, s.wantType, s.wantMatched, s.wantAttempts)
				}
				if r.Responded() && r.RcvdAt != s.wantAt || r.SentAt != s.firstAt+s.sentOffset(r) {
					t.Fatalf("seed %d: batch probe to %v sent at %v, answered at %v; script says %v and %v",
						seed, r.Dst, r.SentAt, r.RcvdAt, s.firstAt+s.sentOffset(r), s.wantAt)
				}
			}
			if rng.Intn(2) == 0 {
				startSomething()
			}
		}
	}
	startSomething = func() {
		if budget <= 0 {
			return
		}
		now := tr.eng.Now()
		timeout := []time.Duration{20, 50, 100}[rng.Intn(3)] * time.Millisecond
		switch what := rng.Intn(10); {
		case what < 4:
			p.StartOne(script(now, timeout, 1), timeout, resolved)
		case what < 6:
			spec := script(now, timeout, 1)
			id, seq, ok := p.Expect(spec, timeout, resolved)
			if !ok {
				t.Fatalf("seed %d: Expect refused", seed)
			}
			if err := p.SendSpoofed(spec, p.LocalAddr(), id, seq); err != nil {
				t.Fatal(err)
			}
		default:
			opts := Options{Rate: []float64{1000, 2000}[rng.Intn(2)], Timeout: timeout, Retries: rng.Intn(3)}
			interval := time.Duration(float64(time.Second) / opts.Rate)
			n := 1 + rng.Intn(2*SendWindow+10)
			if n > budget {
				n = budget
			}
			if what < 8 {
				specs := make([]Spec, n)
				for i := range specs {
					specs[i] = script(now+time.Duration(i)*interval, timeout, opts.attempts())
				}
				p.StartBatch(specs, opts, batchDone(n))
				return
			}
			specs := make([]IndexedSpec, n)
			index := rng.Intn(3)
			for i := range specs {
				index += 1 + rng.Intn(2) // sparse
				specs[i] = IndexedSpec{Index: index, Spec: script(now+time.Duration(index)*interval, timeout, opts.attempts())}
			}
			p.Start(indexedBatch(specs), opts, batchDone(n))
		}
	}

	tr.onSend = func(wire []byte) {
		var ip packet.IPv4
		if _, err := ip.Decode(wire); err != nil {
			t.Fatalf("seed %d: undecodable probe: %v", seed, err)
		}
		s := probes[ip.Dst]
		s.sends++
		k := s.sends
		now := tr.eng.Now()
		want := s.firstAt
		for j := 1; j < k; j++ {
			want += s.timeout << (j - 1)
		}
		if k > s.wantAttempts || s.dones != 0 || now != want {
			t.Fatalf("seed %d: attempt %d to %v left at %v (resolved: %v); script allows %d attempts, this one at %v",
				seed, k, ip.Dst, now, s.dones != 0, s.wantAttempts, want)
		}
		if s.delay[k-1] > 0 {
			reply := replyTo(t, wire)
			tr.deliver(s.delay[k-1], reply)
			delivered++
			if s.dup[k-1] {
				tr.deliver(s.delay[k-1]+time.Duration(1+rng.Intn(200))*time.Millisecond, reply)
				delivered++
			}
		}
	}

	for i := 0; i < 40; i++ {
		tr.eng.Schedule(time.Duration(rng.Intn(3000))*time.Millisecond, startSomething)
	}
	// Keep the prober busy until the budget is spent: slots are recycled
	// while timers of resolved probes are still queued.
	var topUp func()
	topUp = func() {
		if budget > 0 {
			startSomething()
			tr.eng.Schedule(time.Duration(1+rng.Intn(40))*time.Millisecond, topUp)
		}
	}
	tr.eng.Schedule(0, topUp)
	tr.eng.Run()

	if budget != 0 {
		t.Fatalf("seed %d: %d probes never started", seed, budget)
	}
	sends := 0
	for dst, s := range probes {
		if s.dones != 1 {
			t.Errorf("seed %d: probe to %v resolved %d times", seed, dst, s.dones)
		}
		sends += s.sends
	}
	if p.Outstanding() != 0 {
		t.Errorf("seed %d: %d outstanding at quiescence", seed, p.Outstanding())
	}
	sent, matched, timedOut, ignored := p.Stats()
	if int(sent) != sends || int(matched+timedOut) != len(probes) || int(matched+ignored) != delivered {
		t.Errorf("seed %d: stats sent=%d matched=%d timedOut=%d ignored=%d; network saw %d sends, %d probes, %d replies",
			seed, sent, matched, timedOut, ignored, sends, len(probes), delivered)
	}
	checkFree := func(name string, free []int32, slots int) {
		seen := make(map[int32]bool, len(free))
		for _, i := range free {
			if seen[i] || int(i) >= slots {
				t.Errorf("seed %d: %s free list holds slot %d twice or out of range", seed, name, i)
			}
			seen[i] = true
		}
		if len(free) != slots {
			t.Errorf("seed %d: %s free list holds %d of %d slots", seed, name, len(free), slots)
		}
	}
	checkFree("op", p.freeOps, len(p.ops))
	checkFree("attempt", p.freeAtts, len(p.atts))
	checkFree("batch", p.freeBats, len(p.batches))
	if len(p.ops) >= len(probes)/2 || len(p.atts) >= sends/2 {
		t.Errorf("seed %d: %d op slots for %d probes, %d attempt slots for %d sends: slots are not being recycled",
			seed, len(p.ops), len(probes), len(p.atts), sends)
	}
	t.Logf("seed %d: %d probes, %d sends, %d retransmits, %d replies (%d ignored); %d op slots, %d attempt slots, %d batch slots",
		seed, len(probes), sends, p.Retransmits(), delivered, ignored, len(p.ops), len(p.atts), len(p.batches))
	for i, b := range p.batches {
		if b != nil {
			t.Errorf("seed %d: batch slot %d still holds a finished batch", seed, i)
		}
	}
}

// sentOffset is how long after the first attempt the attempt a result
// reports as sent left: the matched attempt's backoff sum for a reply,
// zero (the first attempt) for a timeout.
func (s *scriptedProbe) sentOffset(r Result) time.Duration {
	var off time.Duration
	for j := 1; j < r.MatchedAttempt; j++ {
		off += s.timeout << (j - 1)
	}
	return off
}

// TestScratchBufferDoesNotAlterProbeInFlight is the Transport contract
// the prober's one wire buffer leans on — Inject does not keep pkt —
// checked against the simulator: three different probes are built and
// sent back to back in the same buffer before the engine moves, and the
// destination must still receive each one's own bytes.
func TestScratchBufferDoesNotAlterProbeInFlight(t *testing.T) {
	nw := netsim.New()
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	a := nw.AddHost("vp", src, netsim.DefaultHostBehavior())
	b := nw.AddHost("dst", dst, netsim.DefaultHostBehavior())
	nw.Connect(a, b, src, dst, time.Millisecond)
	var seen [][]byte
	b.SetSniffer(func(_ time.Duration, pkt []byte) { seen = append(seen, bytes.Clone(pkt)) })

	const id = 0x4242
	p := New(NewSimTransport(a, nw.Engine()), id)
	specs := []Spec{
		{Dst: dst, Kind: PingRR},
		{Dst: dst, Kind: Ping, TTL: 9},
		{Dst: dst, Kind: PingRRUDP, RRSlots: 3},
	}
	answered := 0
	for _, s := range specs {
		p.StartOne(s, time.Second, func(r Result) {
			if r.Responded() {
				answered++
			}
		})
	}
	nw.Engine().Run()

	if len(seen) != len(specs) || answered != len(specs) {
		t.Fatalf("destination saw %d probes and answered %d, want %d", len(seen), answered, len(specs))
	}
	for i, s := range specs {
		want, err := s.build(nil, src, id, uint16(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seen[i], want) {
			t.Errorf("probe %d arrived as\n %x\nbuilt as\n %x", i, seen[i], want)
		}
	}
}

// TestResultRRIsCapacityLimited: results' RR slices are neighbours in
// one arena chunk, so each must end at its own length — appending to one
// reallocates instead of overwriting the next result's first hop.
func TestResultRRIsCapacityLimited(t *testing.T) {
	topo, p, _ := testbed(t)
	dests := pickDests(topo, 12)
	specs := make([]Spec, len(dests))
	for i, d := range dests {
		specs[i] = Spec{Dst: d.Addr, Kind: PingRR}
	}
	var rs []Result
	p.StartBatch(specs, Options{Rate: 100}, func(got []Result) { rs = got })
	topo.Net.Engine().Run()

	var before [][]netip.Addr
	for _, r := range rs {
		if len(r.RR) == 0 {
			t.Fatalf("dest %v: no recorded route to test with", r.Dst)
		}
		if cap(r.RR) != len(r.RR) {
			t.Errorf("dest %v: RR has len %d cap %d; spare capacity reaches into the arena", r.Dst, len(r.RR), cap(r.RR))
		}
		before = append(before, append([]netip.Addr(nil), r.RR...))
	}
	intruder := netip.MustParseAddr("192.0.2.99")
	for i := range rs {
		rs[i].RR = append(rs[i].RR, intruder)
	}
	for i, r := range rs {
		for j, hop := range before[i] {
			if r.RR[j] != hop {
				t.Fatalf("dest %v: hop %d became %v after appending to a neighbour's RR", r.Dst, j, r.RR[j])
			}
		}
	}
}

// TestPingRRUDPMatchesHighSequenceNumbers is the regression test for
// ping-RRudp probes numbered 40000 and up: the source port carries the
// sequence number modulo 40000, and the matcher used to look the quoted
// port up under the low candidate only, so such a probe's
// port-unreachable was ignored and the probe timed out — from target
// 1,036 of every VP's RRudp list at the large scale profile.
func TestPingRRUDPMatchesHighSequenceNumbers(t *testing.T) {
	topo, p, _ := testbed(t)
	var dst netip.Addr
	for _, d := range pickDests(topo, 200) {
		if d.GTUDPResponsive {
			dst = d.Addr
			break
		}
	}
	if !dst.IsValid() {
		t.Fatal("no UDP-responsive destination in topology")
	}
	for _, seq := range []uint16{0, 39999, 40000, 45000, 65535} {
		p.Rebase(seq)
		_, _, _, ignored0 := p.Stats()
		var res *Result
		p.StartOne(Spec{Dst: dst, Kind: PingRRUDP}, time.Second, func(r Result) { res = &r })
		topo.Net.Engine().Run()
		if res == nil {
			t.Fatalf("seq %d: never resolved", seq)
		}
		_, _, _, ignored := p.Stats()
		if res.Seq != seq || res.Type != PortUnreachable || !res.HasRR || ignored != ignored0 {
			t.Errorf("seq %d: probe numbered %d resolved as %v (HasRR %v, %d replies ignored), want port-unreachable",
				seq, res.Seq, res.Type, res.HasRR, ignored-ignored0)
		}
	}
}

// benchChain is VP — R0 — R1 — R2 — dest with /32 routes both ways, and a
// prober on the VP.
func benchChain() (*netsim.Network, *Prober, netip.Addr) {
	addr := func(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }
	nw := netsim.New()
	vpAddr, destAddr := addr(10, 0, 0, 2), addr(10, 2, 0, 2)
	vp := nw.AddHost("vp", vpAddr, netsim.DefaultHostBehavior())
	dest := nw.AddHost("dest", destAddr, netsim.DefaultHostBehavior())
	var rs [3]*netsim.Router
	for i := range rs {
		rs[i] = nw.AddRouter("r"+string(rune('0'+i)), netsim.RouterBehavior{})
	}
	_, in := nw.Connect(vp, rs[0], vpAddr, addr(10, 0, 0, 1), time.Millisecond)
	back, fwd := []*netsim.Iface{in}, []*netsim.Iface(nil)
	for i := 0; i+1 < len(rs); i++ {
		near, far := nw.Connect(rs[i], rs[i+1], addr(10, 1, byte(i+1), 1), addr(10, 1, byte(i+1), 2), time.Millisecond)
		fwd, back = append(fwd, near), append(back, far)
	}
	last, _ := nw.Connect(rs[len(rs)-1], dest, addr(10, 2, 0, 1), destAddr, time.Millisecond)
	fwd = append(fwd, last)
	for i, r := range rs {
		r.AddRoute(netip.PrefixFrom(destAddr, 32), fwd[i])
		r.AddRoute(netip.PrefixFrom(vpAddr, 32), back[i])
	}
	return nw, New(NewSimTransport(vp, nw.Engine()), 0x6b6b), destAddr
}

// chainBatches returns batchOf, which makes a function that sends one
// n-probe batch of a kind down benchChain, hands its results to done and
// drains the engine. One 1,000-probe ping-RR batch has already run (done
// saw it): the slabs, the route memos and the packet pool are sized.
func chainBatches(done func([]Result)) (batchOf func(n int, kind Kind) func()) {
	nw, p, dst := benchChain()
	opts := Options{Rate: 10000}
	batchOf = func(n int, kind Kind) func() {
		specs := make([]Spec, n)
		for i := range specs {
			specs[i] = Spec{Dst: dst, Kind: kind}
		}
		return func() {
			p.StartBatch(specs, opts, done)
			nw.Engine().Run()
		}
	}
	batchOf(probeBatchSize, PingRR)()
	return batchOf
}

const probeBatchSize = 1000

// TestProbeBatchAllocs pins what a batch, sent and answered on a
// three-router chain, allocates: the batch, its results array and the RR
// arena's chunks — nothing per probe, so a plain-ping batch, which
// records no route, allocates the same at 100 probes as at 1,000.
func TestProbeBatchAllocs(t *testing.T) {
	batchOf := chainBatches(func([]Result) {})
	// A batch allocates enough bytes for a collection to start inside a
	// measured run, and the runtime's own allocations during one would be
	// counted as the batch's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, large := testing.AllocsPerRun(5, batchOf(probeBatchSize/10, Ping)), testing.AllocsPerRun(5, batchOf(probeBatchSize, Ping))
	if small != large || large > 2 {
		t.Errorf("a plain-ping batch allocates %v times at %d probes and %v at %d, want the batch and its results both times",
			small, probeBatchSize/10, large, probeBatchSize)
	}
	if allocs := testing.AllocsPerRun(5, batchOf(probeBatchSize, PingRR)); allocs > 9 {
		t.Errorf("a %d-probe ping-RR batch allocates %v times, want at most 9", probeBatchSize, allocs)
	}
}

// BenchmarkProbeBatch times one 1,000-probe ping-RR batch, sent and
// answered (TestProbeBatchAllocs pins what it allocates).
func BenchmarkProbeBatch(b *testing.B) {
	answered := 0
	run := chainBatches(func(rs []Result) {
		for i := range rs {
			if rs[i].Type == EchoReply {
				answered++
			}
		}
	})(probeBatchSize, PingRR)
	answered = 0 // the sizing batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if answered != b.N*probeBatchSize {
		b.Fatalf("%d of %d probes answered", answered, b.N*probeBatchSize)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probeBatchSize), "ns/probe")
}
