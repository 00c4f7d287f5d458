package trace

import (
	"net/netip"
	"testing"
	"time"

	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

// testbed builds a small generated Internet and a prober on an
// unfiltered M-Lab vantage point, mirroring internal/probe's harness.
func testbed(t *testing.T) (*topology.Topology, *probe.Prober, *topology.VP) {
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
	p := probe.New(probe.NewSimTransport(vp.Host, topo.Net.Engine()), 0x7b01)
	return topo, p, vp
}

// pickDests returns up to n ground-truth fully-responsive destinations.
func pickDests(topo *topology.Topology, n int) []netip.Addr {
	var out []netip.Addr
	for _, d := range topo.Dests {
		if d.GTPingResponsive && !d.GTRRDrop && !d.GTNoHonorRR && !d.GTAlias.IsValid() &&
			!topo.ASes[d.ASIdx].FilterOptions {
			out = append(out, d.Addr)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func prefix24(a netip.Addr) netip.Prefix {
	p, _ := a.Prefix(24)
	return p
}

// runRound drives one Run call to completion on the testbed engine.
func runRound(t *testing.T, topo *topology.Topology, p *probe.Prober, st *VPState, global *GlobalSet, dsts []netip.Addr, opts Options) *VPRound {
	t.Helper()
	var round *VPRound
	Run("vp", p, st, global, prefix24, dsts, opts, func(r *VPRound) { round = r })
	topo.Net.Engine().Run()
	if round == nil {
		t.Fatal("round never completed")
	}
	return round
}

func TestRunEmptyDests(t *testing.T) {
	topo, p, _ := testbed(t)
	round := runRound(t, topo, p, NewVPState(), NewGlobalSet(), nil, Options{Timeout: time.Second})
	if round.Stats.Traces != 0 || round.Delta.Len() != 0 {
		t.Errorf("empty round traced: %+v", round.Stats)
	}
}

func TestExhaustiveTraceReachesDest(t *testing.T) {
	topo, p, _ := testbed(t)
	dsts := pickDests(topo, 5)
	if len(dsts) < 5 {
		t.Fatalf("only %d responsive dests", len(dsts))
	}
	round := runRound(t, topo, p, NewVPState(), NewGlobalSet(), dsts, Options{Timeout: time.Second, Exhaustive: true})
	if round.Stats.Traces != len(dsts) {
		t.Fatalf("traces = %d, want %d", round.Stats.Traces, len(dsts))
	}
	for _, res := range round.Traces {
		if !res.Reached || res.DestTTL == 0 {
			t.Errorf("dst %v: Reached=%v DestTTL=%d", res.Dst, res.Reached, res.DestTTL)
		}
		if res.FwdProbes != len(res.Hops) {
			t.Errorf("dst %v: exhaustive trace has a backward phase (%d/%d)", res.Dst, res.FwdProbes, len(res.Hops))
		}
		for i, h := range res.Hops {
			if int(h.TTL) != i+1 {
				t.Errorf("dst %v: hop %d probed at TTL %d", res.Dst, i, h.TTL)
			}
		}
		if last := res.Hops[len(res.Hops)-1]; !last.Final || last.TTL != res.DestTTL {
			t.Errorf("dst %v: last hop %+v, want final at DestTTL %d", res.Dst, last, res.DestTTL)
		}
	}
	// Exhaustive mode must not leak into the stop sets.
	if round.Delta != nil {
		t.Errorf("exhaustive round produced a delta of %d entries", round.Delta.Len())
	}
}

// TestDoubletreeMatchesExhaustiveDestTTL pins that doubletree probing
// measures the same destination distances as classic traceroute.
func TestDoubletreeMatchesExhaustiveDestTTL(t *testing.T) {
	topo, p, _ := testbed(t)
	dsts := pickDests(topo, 8)
	want := make(map[netip.Addr]uint8)
	ex := runRound(t, topo, p, NewVPState(), NewGlobalSet(), dsts, Options{Timeout: time.Second, Exhaustive: true})
	for _, res := range ex.Traces {
		want[res.Dst] = res.DestTTL
	}
	dt := runRound(t, topo, p, NewVPState(), NewGlobalSet(), dsts, Options{Timeout: time.Second})
	for _, res := range dt.Traces {
		if !res.Reached {
			t.Errorf("dst %v: doubletree did not reach", res.Dst)
			continue
		}
		if res.DestTTL != want[res.Dst] {
			t.Errorf("dst %v: doubletree DestTTL %d, exhaustive %d", res.Dst, res.DestTTL, want[res.Dst])
		}
	}
	if dt.Delta.Len() == 0 {
		t.Error("doubletree round produced no global-set delta")
	}
	if dt.Stats.Probes >= ex.Stats.Probes {
		t.Errorf("doubletree spent %d probes, naive %d — no saving", dt.Stats.Probes, ex.Stats.Probes)
	}
}

// TestGlobalStopHaltsForwardPhase seeds the global set from one
// exhaustive trace and checks a retrace stops on it, inferring the
// destination's distance without probing it.
func TestGlobalStopHaltsForwardPhase(t *testing.T) {
	topo, p, _ := testbed(t)
	dsts := pickDests(topo, 1)
	ex := runRound(t, topo, p, NewVPState(), NewGlobalSet(), dsts, Options{Timeout: time.Second, Exhaustive: true})
	res := ex.Traces[0]
	if !res.Reached || res.DestTTL < 4 {
		t.Skipf("destination too close for a midpoint test: %+v", res)
	}
	global := NewGlobalSet()
	for _, h := range res.Hops {
		if h.Responded() && !h.Final {
			global.Add(Key{Iface: h.Addr, Prefix: prefix24(res.Dst)}, res.DestTTL-h.TTL)
		}
	}
	dt := runRound(t, topo, p, NewVPState(), global, dsts,
		Options{Timeout: time.Second, FirstHop: res.DestTTL / 2})
	got := dt.Traces[0]
	if !got.GlobalStop || !got.Inferred {
		t.Fatalf("retrace did not global-stop: %+v", got)
	}
	if got.DestTTL != res.DestTTL {
		t.Errorf("inferred DestTTL %d, measured %d", got.DestTTL, res.DestTTL)
	}
	if got.FwdProbes != 1 {
		t.Errorf("forward phase took %d probes, want 1 (stop on first hit)", got.FwdProbes)
	}
	if dt.Stats.Saved == 0 {
		t.Error("global stop credited no saved probes")
	}
}

// TestLocalStopHaltsBackwardPhase checks that once a VP's local set
// holds its near-side path, later backward phases stop on it.
func TestLocalStopHaltsBackwardPhase(t *testing.T) {
	topo, p, _ := testbed(t)
	dsts := pickDests(topo, 12)
	if len(dsts) < 6 {
		t.Fatalf("only %d responsive dests", len(dsts))
	}
	st := NewVPState()
	round := runRound(t, topo, p, st, NewGlobalSet(), dsts, Options{Timeout: time.Second})
	if round.Stats.LocalStops == 0 {
		t.Error("no backward probe ever hit the local set")
	}
	if st.Local.Len() == 0 {
		t.Error("local set still empty after a full round")
	}
}

// TestRebuildMatchesLive pins the journal-replay contract: rebuilding
// a round from its archived traces reproduces the live delta, stats,
// and local set exactly.
func TestRebuildMatchesLive(t *testing.T) {
	topo, p, _ := testbed(t)
	dsts := pickDests(topo, 10)
	liveState := NewVPState()
	live := runRound(t, topo, p, liveState, NewGlobalSet(), dsts, Options{Timeout: time.Second})

	replayState := NewVPState()
	replay := Rebuild("vp", replayState, prefix24, live.Traces, Options{Timeout: time.Second})
	if replay.Stats != live.Stats {
		t.Errorf("replayed stats %+v != live %+v", replay.Stats, live.Stats)
	}
	if !replay.Delta.Equal(live.Delta) {
		t.Error("replayed delta differs from live delta")
	}
	la, ra := liveState.Local.Addrs(), replayState.Local.Addrs()
	if len(la) != len(ra) {
		t.Fatalf("local sets differ: %d vs %d", len(la), len(ra))
	}
	for i := range la {
		if la[i] != ra[i] {
			t.Fatalf("local sets differ at %d: %v vs %v", i, la[i], ra[i])
		}
	}
	if replayState.midTTL(Options{}) != liveState.midTTL(Options{}) {
		t.Error("replayed midpoint adaptation differs from live")
	}
}
