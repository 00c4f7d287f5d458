package study

import (
	"bytes"
	"fmt"
	"testing"

	"recordroute/internal/netsim"
	"recordroute/internal/topology"
)

// dtRun is one cell of the traceroute determinism property: the
// doubletree experiment run to completion on K shards.
type dtRun struct {
	result *DoubletreeResult
	render []byte
	errs   []string
}

// runDoubletreeSharded builds one study from identical config and runs
// the full two-arm experiment on K shards.
func runDoubletreeSharded(t *testing.T, seed uint64, fc *netsim.FaultConfig, shards int) dtRun {
	t.Helper()
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	cfg.Seed = seed
	cfg.Faults = fc
	s, err := New(cfg, Options{Rate: 200, ShuffleSeed: 7, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	run := dtRun{result: s.RunDoubletree(120, 3)}
	var buf bytes.Buffer
	run.result.Render(&buf)
	run.render = buf.Bytes()
	for _, e := range s.Fleet().ShardErrors() {
		run.errs = append(run.errs, fmt.Sprint(e))
	}
	return run
}

// TestTracerouteShardDeterminismProperty extends the shard-determinism
// contract (DESIGN.md §6, §14) to the doubletree engine: for every
// seed, with and without a fault plan, the experiment on K=2 and K=4
// shards must reproduce the K=1 run exactly — byte-identical render
// and a byte-identical final global stop set. The render folds in
// every per-wave budget and the merged set's codec bytes, so any
// divergence in probing decisions or delta merging surfaces here.
func TestTracerouteShardDeterminismProperty(t *testing.T) {
	seeds := []uint64{3, 11, 29}
	faults := []struct {
		name string
		fc   *netsim.FaultConfig
	}{
		{"no-faults", nil},
		{"fault-plan", &netsim.FaultConfig{LossProb: 0.05, LossFrac: 0.25,
			OutageFrac: 0.02, WithdrawFrac: 0.05}},
	}
	for _, seed := range seeds {
		for _, f := range faults {
			t.Run(fmt.Sprintf("seed%d/%s", seed, f.name), func(t *testing.T) {
				base := runDoubletreeSharded(t, seed, f.fc, 1)
				for _, k := range []int{2, 4} {
					got := runDoubletreeSharded(t, seed, f.fc, k)
					if len(got.errs) > 0 {
						t.Errorf("K=%d: shard errors: %v", k, got.errs)
					}
					if !bytes.Equal(got.render, base.render) {
						t.Errorf("K=%d: render differs from sequential:\n--- K=1 ---\n%s\n--- K=%d ---\n%s",
							k, base.render, k, got.render)
					}
					if !bytes.Equal(got.result.StopSetBytes, base.result.StopSetBytes) {
						t.Errorf("K=%d: final global stop set differs from sequential (%d vs %d bytes)",
							k, len(got.result.StopSetBytes), len(base.result.StopSetBytes))
					}
				}
			})
		}
	}
}

// TestDoubletreeCompletenessProperty is the paper's coverage claim:
// doubletree with stop sets discovers (essentially) the same interface
// set as exhaustive per-VP traceroute on the same seed, while spending
// under half the probes. Backward stops can hide interfaces on path
// tails that diverge below the stop — Doubletree's documented blind
// spot — so coverage is asserted at >= 97%, not equality. The medium
// profile adds only scale, so it is skipped in -short and -race runs.
func TestDoubletreeCompletenessProperty(t *testing.T) {
	cells := []struct {
		profile topology.ScaleProfile
		dests   int
		heavy   bool
	}{
		{topology.ScaleSmall, 400, false},
		{topology.ScaleMedium, 250, true},
	}
	for _, cell := range cells {
		t.Run(string(cell.profile), func(t *testing.T) {
			if cell.heavy && (testing.Short() || raceEnabled) {
				t.Skip("medium profile: skipped in -short/-race runs")
			}
			cfg, opts, err := Spec{Profile: string(cell.profile), Seed: 11, Rate: 200, ShuffleSeed: 7, Shards: 2}.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			res := s.RunDoubletree(cell.dests, 4)
			if cov := res.Coverage(); cov < 0.97 {
				t.Errorf("interface coverage %.4f (%d/%d), want >= 0.97",
					cov, res.CommonIfaces, res.NaiveIfaces)
			}
			if saved := res.SavedFrac(); saved < 0.5 {
				t.Errorf("probe saving %.4f (%d vs %d probes), want >= 0.5",
					saved, res.DT.Probes, res.Naive.Probes)
			}
			if res.DT.GlobalStops == 0 {
				t.Error("global stop set never fired")
			}
			if res.DT.LocalStops == 0 {
				t.Error("local stop sets never fired")
			}
		})
	}
}
