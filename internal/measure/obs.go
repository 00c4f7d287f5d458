package measure

import (
	"fmt"

	"recordroute/internal/obs"
)

// Observe attaches an observability configuration to the campaign's
// shared engine and every VP prober. A nil or inactive observer is a
// no-op, leaving the hot paths with their bare nil checks. Attaching
// never perturbs the run: all hooks record synchronously and schedule
// nothing (see package obs).
func (c *Campaign) Observe(o *obs.Observer) {
	if !o.Active() {
		return
	}
	if o.PerNode {
		c.Net.EnableNodeCounters()
	}
	if o.Trace != nil {
		c.Net.SetTracer(o.Trace.NetworkTracer())
		for _, vp := range c.VPs {
			vp.Prober.SetTracer(o.Trace.ProberTracer(vp.Name))
		}
	}
}

// Metrics captures the campaign's counters as a single-shard snapshot.
func (c *Campaign) Metrics(label string) *obs.Snapshot {
	return obs.NewSnapshot(label, obs.Capture("shard0", c.Net))
}

// Observe attaches an observability configuration to every shard
// replica — existing ones immediately, lazily built ones at init. Each
// replica's network and probers report into the same observer; the
// trace ring is mutex-guarded, so concurrent shards may interleave
// their (shard-local-clock-stamped) events.
func (pc *ParallelCampaign) Observe(o *obs.Observer) {
	if !o.Active() {
		return
	}
	pc.observer = o
	for _, rep := range pc.replicas {
		pc.observeReplica(rep)
	}
}

// observeReplica applies the stored observer to one replica.
func (pc *ParallelCampaign) observeReplica(rep *replica) {
	o := pc.observer
	if !o.Active() {
		return
	}
	if o.PerNode {
		rep.topo.Net.EnableNodeCounters()
	}
	if o.Trace != nil {
		rep.topo.Net.SetTracer(o.Trace.NetworkTracer())
		for _, vp := range rep.vps {
			vp.Prober.SetTracer(o.Trace.ProberTracer(vp.Name))
		}
	}
}

// Metrics captures every shard replica's counters ("shard0".."shardN")
// into a labeled snapshot. Dead shards are captured too — their
// counters reflect the work done before the failure, and ShardErrors
// already marks them. The merged totals are shard-count-invariant for
// sharding-safe workloads (the determinism contract): every simulated
// event happens exactly once in exactly one engine regardless of K.
func (pc *ParallelCampaign) Metrics(label string) *obs.Snapshot {
	pc.init()
	shards := make([]obs.ShardMetrics, len(pc.replicas))
	for i, rep := range pc.replicas {
		shards[i] = obs.Capture(fmt.Sprintf("shard%d", i), rep.topo.Net)
	}
	return obs.NewSnapshot(label, shards...)
}
