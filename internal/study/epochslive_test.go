package study

import (
	"context"
	"testing"

	"recordroute/internal/topology"
)

func epochsLiveConfig() topology.Config {
	return topology.DefaultConfig(topology.Epoch2016).Scale(0.25)
}

// TestEpochsLiveChurnMovesReachability: with the default churn plan,
// consecutive epochs must actually gain and lose destinations — and
// with churn disabled, they must not. The pair proves the per-epoch
// reachability differences come from the churn clock, not from any
// nondeterminism in the probing itself.
func TestEpochsLiveChurn(t *testing.T) {
	el, err := RunEpochsLive(context.Background(), epochsLiveConfig(), Options{Rate: 200, ShuffleSeed: 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if el.Faults.ChurnedPfxs == 0 {
		t.Fatal("default churn plan afflicted no prefixes")
	}
	moved := false
	for _, d := range el.Index.Diffs() {
		if len(d.Gained) > 0 || len(d.Lost) > 0 {
			moved = true
		}
		if d.Stable == 0 {
			t.Errorf("epoch %d->%d has no stable core; churn should be partial", d.From, d.To)
		}
	}
	if !moved {
		t.Error("3 epochs under churn show zero reachability movement")
	}

	// Churn off: every epoch sees the identical world; only the shuffle
	// seed differs, which must not change the reachable set.
	cfg := epochsLiveConfig()
	cfg.Faults = DefaultChurnFaults(cfg.Seed)
	cfg.Faults.ChurnProb = 0
	still, err := RunEpochsLive(context.Background(), cfg, Options{Rate: 200, ShuffleSeed: 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range still.Index.Diffs() {
		if len(d.Gained) != 0 || len(d.Lost) != 0 {
			t.Errorf("churn-free epochs %d->%d moved: +%d -%d", d.From, d.To, len(d.Gained), len(d.Lost))
		}
	}
}
