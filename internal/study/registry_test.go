package study

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"recordroute/internal/netsim"
	"recordroute/internal/topology"
)

// walk is one cell of the generated determinism matrix: every
// registered experiment run in registry order on one study, as
// rrstudy's "all" runs its selection.
type walk struct {
	renders map[string][]byte
	merged  []byte // canonical JSON of the merged metrics counters
}

// runWalk builds the matrix world (scale 0.15, seed 11, under fc) at
// the given shard count, journaled at journal unless it is empty, and
// runs the whole registry on it at the golden Params.
func runWalk(t *testing.T, fc *netsim.FaultConfig, shards int, journal string, resume bool) walk {
	t.Helper()
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	cfg.Seed = 11
	cfg.Faults = fc
	s, err := New(cfg, Options{Rate: 200, ShuffleSeed: 7, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if journal != "" {
		j, err := s.AttachJournal(journal, resume)
		if err != nil {
			t.Fatal(err)
		}
		if resume && j.Archived() == 0 {
			t.Fatal("resume replayed nothing: the journal cut left no archive")
		}
		defer func() {
			if err := s.CloseJournal(); err != nil {
				t.Fatal(err)
			}
		}()
	}
	w := walk{renders: make(map[string][]byte)}
	for _, e := range Experiments() {
		w.renders[e.Name] = render(t, s, e, goldens[e.Name].p)
	}
	if errs := s.Fleet().ShardErrors(); len(errs) > 0 {
		t.Fatalf("K=%d: shard errors: %v", shards, errs)
	}
	if w.merged, err = json.Marshal(s.Metrics("matrix").Merged); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRegistryShardInvariance is the determinism contract generated
// from the registry (DESIGN.md §6, §11): for every experiment, with and
// without a fault plan, the render at K=2 and K=4 equals K=1's —
// unjournaled runs compared among themselves, journaled runs among
// themselves (under faults a journaled Table 1 differs from an
// unjournaled one: its phases are quantized) — as do the merged metrics
// of every engine the study ran; and a journaled walk killed mid-run
// (its journal cut to a prefix, mid-line) and resumed renders what the
// uninterrupted one did. Every entry probes the study's one fleet, so
// under the fault plan, whose drops are drawn from the virtual clock,
// the cells hold only because each phase starts every replica at the
// same synced clock and sequence base.
func TestRegistryShardInvariance(t *testing.T) {
	faults := []struct {
		name string
		fc   *netsim.FaultConfig
	}{
		{"no-faults", nil},
		{"fault-plan", &netsim.FaultConfig{LossProb: 0.05, LossFrac: 0.25,
			OutageFrac: 0.02, WithdrawFrac: 0.05}},
	}
	for _, f := range faults {
		for _, journaled := range []bool{false, true} {
			mode := "unjournaled"
			if journaled {
				mode = "journaled"
			}
			t.Run(f.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				path := func(k int) string {
					if !journaled {
						return ""
					}
					return filepath.Join(dir, fmt.Sprintf("k%d.jsonl", k))
				}
				base := runWalk(t, f.fc, 1, path(1), false)
				type cell struct {
					label string
					ref   walk
					got   walk
				}
				var cells []cell
				for _, k := range []int{2, 4} {
					got := runWalk(t, f.fc, k, path(k), false)
					cells = append(cells, cell{fmt.Sprintf("K=%d", k), base, got})
					if !bytes.Equal(got.merged, base.merged) {
						t.Errorf("K=%d: merged metrics differ from K=1:\nK=1: %s\nK=%d: %s", k, base.merged, k, got.merged)
					}
				}
				if journaled {
					cut := filepath.Join(dir, "cut.jsonl")
					cutJournalPrefix(t, path(2), cut, 0.5)
					cells = append(cells, cell{"K=2 resumed", cells[0].got, runWalk(t, f.fc, 2, cut, true)})
				}
				for _, e := range Experiments() {
					t.Run(e.Name, func(t *testing.T) {
						for _, c := range cells {
							if want, got := c.ref.renders[e.Name], c.got.renders[e.Name]; !bytes.Equal(got, want) {
								t.Errorf("%s: render differs:\n--- want ---\n%s\n--- %s ---\n%s", c.label, want, c.label, got)
							}
						}
					})
				}
			})
		}
	}
}
