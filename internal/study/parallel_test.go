package study

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"recordroute/internal/measure"
	"recordroute/internal/netsim"
	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

// shardRun is one cell of the determinism property: a study built from
// identical config, run to completion on K shards.
type shardRun struct {
	shards  int
	resp    *Responsiveness
	render  []byte
	merged  []byte // canonical JSON of the merged metrics counters
	aliases string // alias partition from reachability's sharded collection
	errs    []string
}

// runSharded builds and runs one study cell: responsiveness and
// reachability, whose origin ping phase and alias collection both
// exercise the destination-sharded PingBatchVP.
func runSharded(t *testing.T, seed uint64, fc *netsim.FaultConfig, shards int) shardRun {
	t.Helper()
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	cfg.Seed = seed
	cfg.Faults = fc
	s, err := New(cfg, Options{Rate: 200, ShuffleSeed: 7, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	run := shardRun{shards: shards, resp: s.RunResponsiveness()}
	re := s.RunReachability(run.resp)
	run.aliases = fmt.Sprint(re.AliasSets.All())

	var buf bytes.Buffer
	run.resp.Render(&buf)
	re.Render(&buf)
	run.render = buf.Bytes()

	merged, err := json.Marshal(s.Metrics("prop").Merged)
	if err != nil {
		t.Fatal(err)
	}
	run.merged = merged

	for _, e := range s.Fleet().ShardErrors() {
		run.errs = append(run.errs, fmt.Sprint(e))
	}
	return run
}

// TestShardDeterminismProperty is the table-driven determinism
// contract (DESIGN.md §6–7, §15): for every seed, with and without a
// fault plan, running the campaign on K=2 and K=4 shards must
// reproduce the K=1 run exactly — byte-identical Table 1 and
// reachability renders (covering the destination-sharded origin ping
// phase and alias collection), identical alias partitions, identical
// per-VP result streams, byte-identical merged metrics counters, and no
// shard failures.
func TestShardDeterminismProperty(t *testing.T) {
	seeds := []uint64{3, 11, 29}
	faults := []struct {
		name string
		fc   *netsim.FaultConfig
	}{
		{"no-faults", nil},
		// Withdrawals are included deliberately: their route-cache flip
		// observations are engine-local and must be excluded from the
		// merged metrics for the snapshot comparison to hold.
		{"fault-plan", &netsim.FaultConfig{LossProb: 0.05, LossFrac: 0.25,
			OutageFrac: 0.02, WithdrawFrac: 0.05}},
	}
	for _, seed := range seeds {
		for _, f := range faults {
			t.Run(fmt.Sprintf("seed%d/%s", seed, f.name), func(t *testing.T) {
				base := runSharded(t, seed, f.fc, 1)
				for _, k := range []int{2, 4} {
					got := runSharded(t, seed, f.fc, k)
					if len(got.errs) > 0 {
						t.Errorf("K=%d: shard errors: %v", k, got.errs)
					}
					if !bytes.Equal(got.render, base.render) {
						t.Errorf("K=%d: Table 1 render differs from sequential:\n--- K=1 ---\n%s\n--- K=%d ---\n%s",
							k, base.render, k, got.render)
					}
					if !bytes.Equal(got.merged, base.merged) {
						t.Errorf("K=%d: merged metrics differ from sequential:\nK=1: %s\nK=%d: %s",
							k, base.merged, k, got.merged)
					}
					if got.aliases != base.aliases {
						t.Errorf("K=%d: alias partition differs from sequential:\nK=1: %s\nK=%d: %s",
							k, base.aliases, k, got.aliases)
					}
					comparePerVP(t, k, base.resp.PerVP, got.resp.PerVP)
				}
			})
		}
	}
}

// TestCloneEquivalenceProperty is the snapshot/clone contract (DESIGN.md
// §10) at the campaign-primitive level, across all three scale profiles:
// a fleet of replicas cloned from the study's own topology — after that
// topology has already carried a one-replica fleet's traffic — must
// reproduce that reference's per-VP ping-RR streams exactly, with and
// without a fault plan. Destination lists are capped
// on the bigger profiles to keep the cell bounded; the small profile
// additionally runs at K=2 (the large ones use K=4, the heavier
// partition). The large cell is skipped in -short and -race runs: it
// adds only scale, not new sharing topology.
func TestCloneEquivalenceProperty(t *testing.T) {
	faults := []struct {
		name string
		fc   *netsim.FaultConfig
	}{
		{"no-faults", nil},
		{"fault-plan", &netsim.FaultConfig{LossProb: 0.05, LossFrac: 0.25,
			OutageFrac: 0.02, WithdrawFrac: 0.05}},
	}
	cells := []struct {
		profile topology.ScaleProfile
		shards  []int
		dests   int
		heavy   bool
	}{
		{topology.ScaleSmall, []int{2, 4}, 400, false},
		{topology.ScaleMedium, []int{4}, 250, false},
		{topology.ScaleLarge, []int{4}, 120, true},
	}
	for _, cell := range cells {
		for _, f := range faults {
			for _, k := range cell.shards {
				t.Run(fmt.Sprintf("%s/%s/K=%d", cell.profile, f.name, k), func(t *testing.T) {
					if cell.heavy && (testing.Short() || raceEnabled) {
						t.Skip("large profile: skipped in -short/-race runs")
					}
					cfg, opts, err := Spec{Profile: string(cell.profile), Seed: 11, Faults: f.fc,
						Rate: 200, ShuffleSeed: 7, Shards: k}.Resolve()
					if err != nil {
						t.Fatal(err)
					}
					s, err := New(cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					dests := s.Data.Addrs()
					if len(dests) > cell.dests {
						dests = dests[:cell.dests]
					}
					// The one-replica reference first, on the study's own
					// engine: the clones are stamped out only afterwards,
					// off an engine that has already run, and must come
					// out pristine regardless.
					seq := measure.NewFleet(s.Camp, s.CloudCamp, 1).PingRRAll(dests, opts.ProbeOpts(), s.Shuffler())
					par := s.Fleet().PingRRAll(dests, opts.ProbeOpts(), s.Shuffler())
					if errs := s.Fleet().ShardErrors(); len(errs) > 0 {
						t.Fatalf("shard errors: %v", errs)
					}
					comparePerVP(t, k, seq, par)
				})
			}
		}
	}
}

// comparePerVP checks the merge discipline below the summaries: the
// same VP set, and per VP the same results, every field included, in
// the same send order.
func comparePerVP(t *testing.T, k int, seq, par map[string][]probe.Result) {
	t.Helper()
	var seqVPs, parVPs []string
	for vp := range seq {
		seqVPs = append(seqVPs, vp)
	}
	for vp := range par {
		parVPs = append(parVPs, vp)
	}
	sort.Strings(seqVPs)
	sort.Strings(parVPs)
	if !reflect.DeepEqual(seqVPs, parVPs) {
		t.Fatalf("K=%d: VP sets differ: %v vs %v", k, seqVPs, parVPs)
	}
	for _, vp := range seqVPs {
		srs, prs := seq[vp], par[vp]
		if len(srs) != len(prs) {
			t.Errorf("K=%d VP %s: %d results sequential vs %d sharded", k, vp, len(srs), len(prs))
			continue
		}
		for i := range srs {
			if !reflect.DeepEqual(srs[i], prs[i]) {
				t.Errorf("K=%d VP %s result %d differs:\nsequential: %+v\nsharded:    %+v", k, vp, i, srs[i], prs[i])
				break
			}
		}
	}
}

// TestStudyShardsOptionResolution pins the placement rules: Shards is a
// replica count, never an executor choice. Shards=1 is one replica on
// the study's own engine — its VPs are the study's roster, journaled or
// not — Shards=2 two cloned replicas, Shards=0 one per GOMAXPROCS up to
// the VP count, and the fleet is made once.
func TestStudyShardsOptionResolution(t *testing.T) {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	for _, c := range []struct {
		shards  int
		journal bool
		want    int
		inline  bool
	}{
		{1, false, 1, true},
		{1, true, 1, true},
		{2, false, 2, false},
		{0, false, runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0) == 1},
	} {
		s, err := New(cfg, Options{Shards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		if c.journal {
			if _, err := s.AttachJournal(filepath.Join(t.TempDir(), "j.jsonl"), false); err != nil {
				t.Fatal(err)
			}
			defer s.CloseJournal()
		}
		fl := s.Fleet()
		pc, ok := fl.(*measure.ParallelCampaign)
		if !ok {
			t.Fatalf("Shards=%d: Fleet() is %T", c.shards, fl)
		}
		if want := min(c.want, len(s.Topo.VPs)); pc.NumShards() != want {
			t.Errorf("Shards=%d: %d replicas, want %d", c.shards, pc.NumShards(), want)
		}
		if inline := pc.VP(s.Origin.Name) == s.Origin; inline != c.inline {
			t.Errorf("Shards=%d journaled=%v: replica is the study's own engine = %v, want %v",
				c.shards, c.journal, inline, c.inline)
		}
		if fl != s.Fleet() {
			t.Errorf("Shards=%d: Fleet() not cached across calls", c.shards)
		}
	}
}
