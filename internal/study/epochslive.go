package study

import (
	"context"
	"fmt"
	"io"

	"recordroute/internal/netsim"
	"recordroute/internal/results"
	"recordroute/internal/topology"
)

// EpochsLive is the recurring-campaign experiment: one topology probed
// across consecutive fault epochs under long-horizon route churn
// (FaultConfig.ChurnProb), with the per-epoch RR-reachable sets diffed
// into a gained/lost/stable time series. It is the single-process twin
// of a daemon Schedule — same derived seeds, same epoch semantics — so
// its golden render pins the scheduler's determinism contract.
type EpochsLive struct {
	Index  *results.EpochIndex
	Faults netsim.FaultSummary
	Epochs int
}

// DefaultChurnFaults is the fault plan epochs-live installs when the
// caller supplies none: no packet-level faults, only epoch churn — half
// the registered (router, prefix) candidates join the pool, and each
// pooled prefix sits out any given epoch with probability 0.35.
func DefaultChurnFaults(seed uint64) *netsim.FaultConfig {
	return &netsim.FaultConfig{
		Seed:      seed ^ 0xc4ceb9fe1a85ec53,
		ChurnFrac: 0.5,
		ChurnProb: 0.35,
	}
}

// RunEpochsLive builds the world once, snapshots it, and measures
// `epochs` consecutive fault epochs, each on a fresh clone with the
// epoch's derived shuffle seed (EpochSeed) and churn clock. The route
// plane is built exactly once — the property the service's plane-cache
// affinity relies on — and each epoch's render is byte-reproducible at
// any shard count. Every epoch probes under ctx (Study.SetContext).
func RunEpochsLive(ctx context.Context, cfg topology.Config, opts Options, epochs int) (*EpochsLive, error) {
	if epochs < 1 {
		epochs = 3
	}
	if cfg.Faults == nil {
		cfg.Faults = DefaultChurnFaults(cfg.Seed)
	}
	topo, err := topology.Build(cfg)
	if err != nil {
		return nil, err
	}
	snap := topology.SnapshotOf(topo)
	el := &EpochsLive{Index: &results.EpochIndex{}, Faults: topo.Faults, Epochs: epochs}
	base := opts.ShuffleSeed
	for e := 0; e < epochs; e++ {
		eopts := opts
		eopts.FaultEpoch = e
		eopts.ShuffleSeed = EpochSeed(base, e)
		st, err := NewFromTopology(snap.Clone(), eopts)
		if err != nil {
			return nil, err
		}
		st.SetContext(ctx)
		r := st.RunResponsiveness()
		el.Index.Add(e, r.RRResponsive())
	}
	return el, nil
}

// Render prints the epoch time series and churn deltas.
func (el *EpochsLive) Render(w io.Writer) {
	fmt.Fprintln(w, "== epochs-live: RR reachability across fault epochs under route churn ==")
	fmt.Fprintf(w, "faults: %s\n\n", el.Faults)
	el.Index.RenderTable(w)
}
