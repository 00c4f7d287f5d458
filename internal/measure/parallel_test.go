package measure

import (
	"net/netip"
	"reflect"
	"testing"

	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

func testConfig() topology.Config {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.2)
	cfg.Seed = 11
	return cfg
}

// testFleet builds cfg's topology and returns a k-shard fleet cloned
// from it.
func testFleet(t *testing.T, cfg topology.Config, k int) *ParallelCampaign {
	t.Helper()
	topo, err := topology.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewParallelCampaignFrom(topo, k)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

// normalize strips the one field the determinism contract exempts:
// destination IP-ID counters observe only shard-local traffic, so the
// absolute IDs stamped on replies differ across executors.
func normalize(rs []probe.Result) []probe.Result {
	out := append([]probe.Result(nil), rs...)
	for i := range out {
		out[i].ReplyIPID = 0
	}
	return out
}

func comparePerVP(t *testing.T, label string, seq, par map[string][]probe.Result) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: %d VPs sequential vs %d parallel", label, len(seq), len(par))
	}
	for vp, srs := range seq {
		prs, ok := par[vp]
		if !ok {
			t.Errorf("%s: VP %s missing from parallel results", label, vp)
			continue
		}
		if len(srs) != len(prs) {
			t.Errorf("%s: VP %s has %d sequential vs %d parallel results", label, vp, len(srs), len(prs))
			continue
		}
		ns, np := normalize(srs), normalize(prs)
		for i := range ns {
			if !reflect.DeepEqual(ns[i], np[i]) {
				t.Errorf("%s: VP %s result %d differs:\nsequential: %+v\nparallel:   %+v",
					label, vp, i, ns[i], np[i])
				break
			}
		}
	}
}

// TestParallelCampaignMatchesSequential is the measure-level determinism
// contract: every campaign primitive returns identical results (modulo
// ReplyIPID) whether VPs share one engine or split across shard
// replicas. Running it under -race also exercises the shard worker pool.
func TestParallelCampaignMatchesSequential(t *testing.T) {
	cfg := testConfig()
	opts := probe.Options{Rate: 100}

	topo, err := topology.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewCampaign(topo, topo.VPs)

	par := testFleet(t, cfg, 3)

	dests := make([]netip.Addr, 0, 40)
	for _, d := range topo.Dests {
		dests = append(dests, d.Addr)
		if len(dests) == 40 {
			break
		}
	}
	if len(dests) < 10 {
		t.Fatalf("only %d destinations at test scale", len(dests))
	}

	// Shuffle per VP like the study does, so orderings are VP-specific.
	orderFor := func(vp string, ds []netip.Addr) []netip.Addr {
		out := append([]netip.Addr(nil), ds...)
		rot := len(vp) % len(out)
		return append(out[rot:], out[:rot]...)
	}

	comparePerVP(t, "PingRRAll",
		seq.PingRRAll(dests, opts, orderFor),
		par.PingRRAll(dests, opts, orderFor))

	// Grouped plain pings.
	seqPing := seq.PingAll(dests[:10], 2, opts)
	parPing := par.PingAll(dests[:10], 2, opts)
	if len(seqPing) != len(parPing) {
		t.Fatalf("PingAll: VP count %d vs %d", len(seqPing), len(parPing))
	}
	for vp, gs := range seqPing {
		gp := parPing[vp]
		if len(gs) != len(gp) {
			t.Errorf("PingAll: VP %s group count %d vs %d", vp, len(gs), len(gp))
			continue
		}
		for i := range gs {
			if !reflect.DeepEqual(normalize(gs[i]), normalize(gp[i])) {
				t.Errorf("PingAll: VP %s dest %d differs", vp, i)
				break
			}
		}
	}

	// Per-VP target lists.
	perVP := make(map[string][]netip.Addr)
	for i, name := range par.VPNames() {
		perVP[name] = dests[i%len(dests) : min(i%len(dests)+5, len(dests))]
	}
	comparePerVP(t, "PingRRUDPAll",
		seq.PingRRUDPAll(perVP, opts),
		par.PingRRUDPAll(perVP, opts))

	// Clocks must agree across shards and with the sequential engine
	// after every primitive (phases start at the same virtual instant).
	for i, rep := range par.replicas {
		if rep.eng.Now() != seq.Eng.Now() {
			t.Errorf("shard %d clock %v != sequential clock %v", i, rep.eng.Now(), seq.Eng.Now())
		}
	}
}

// TestParallelCampaignShardFailureIsolated is the partial-results
// contract: a shard that panics mid-primitive is recovered, reported
// through ShardErrors with its lost VPs, and the surviving shards keep
// returning complete results — in that primitive and in later ones.
func TestParallelCampaignShardFailureIsolated(t *testing.T) {
	par := testFleet(t, testConfig(), 3)
	names := par.VPNames() // forces replica build
	if len(names) < 3 {
		t.Fatalf("only %d VPs at test scale", len(names))
	}

	dests := make([]netip.Addr, 0, 10)
	for _, d := range par.replicas[0].topo.Dests {
		dests = append(dests, d.Addr)
		if len(dests) == 10 {
			break
		}
	}

	// Kill shard 1 mid-primitive: the injected event panics while the
	// shard engine drains its probe batches, before any batch completes.
	par.replicas[1].eng.Schedule(0, func() { panic("injected shard fault") })

	dead := make(map[string]bool)
	for i, n := range names {
		if i%3 == 1 {
			dead[n] = true
		}
	}

	opts := probe.Options{Rate: 100}
	got := par.PingRRAll(dests, opts, nil)

	errs := par.ShardErrors()
	if len(errs) != 1 {
		t.Fatalf("ShardErrors = %v, want exactly the killed shard", errs)
	}
	se := errs[0]
	if se.Shard != 1 || se.Err == nil {
		t.Errorf("ShardError = shard %d err %v, want shard 1 with an error", se.Shard, se.Err)
	}
	if len(se.VPs) != len(dead) {
		t.Errorf("ShardError names %d VPs, want %d", len(se.VPs), len(dead))
	}
	for _, n := range se.VPs {
		if !dead[n] {
			t.Errorf("ShardError names VP %s, which lives on another shard", n)
		}
	}

	for _, n := range names {
		rs, ok := got[n]
		if dead[n] {
			if ok {
				t.Errorf("dead-shard VP %s returned %d results", n, len(rs))
			}
			if par.VP(n) != nil {
				t.Errorf("VP(%q) on a dead shard is non-nil", n)
			}
			continue
		}
		if !ok || len(rs) != len(dests) {
			t.Errorf("surviving VP %s: %d results, want %d", n, len(rs), len(dests))
		}
	}

	// A later primitive still runs on the survivors without re-reporting
	// new failures.
	again := par.PingAll(dests[:3], 1, opts)
	for _, n := range names {
		if dead[n] {
			if _, ok := again[n]; ok {
				t.Errorf("dead-shard VP %s resurfaced in a later primitive", n)
			}
			continue
		}
		if len(again[n]) != 3 {
			t.Errorf("surviving VP %s: %d ping groups, want 3", n, len(again[n]))
		}
	}
	if got := par.ShardErrors(); len(got) != 1 {
		t.Errorf("ShardErrors grew to %d after a healthy primitive", len(got))
	}
}

// TestParallelCampaignShardClamp checks that absurd shard counts clamp
// to the VP population instead of building empty replicas.
func TestParallelCampaignShardClamp(t *testing.T) {
	par := testFleet(t, testConfig(), 10000)
	names := par.VPNames()
	if got := par.NumShards(); got != len(names) {
		t.Errorf("NumShards = %d, want clamp to %d VPs", got, len(names))
	}
	if par.VP(names[0]) == nil {
		t.Errorf("VP(%q) = nil after clamp", names[0])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
