package study

import (
	"recordroute/internal/obs"
)

// Observe attaches an observability configuration to every engine the
// study probes through, made or not — one made later inherits it: the
// study's own network and its VP probers (direct probes, and the fleet
// at one shard) and the fleet's cloned replicas. Attach before running
// experiments; attaching never changes what a run computes (see package
// obs).
func (s *Study) Observe(o *obs.Observer) {
	if !o.Active() {
		return
	}
	s.observer = o
	s.Camp.Observe(o)
	s.CloudCamp.Observe(o) // same network; wires the cloud probers
	if s.fleet != nil {
		s.fleet.Observe(o)
	}
}

// Metrics captures a labeled snapshot spanning the study's engines, each
// exactly once: "shared" for the study's own network (direct probes, and
// the fleet at one shard) and one "shardN" entry per replica the fleet
// cloned. Every simulated event lands in exactly one captured engine at
// any shard count, which is what makes Merged totals comparable across
// shard counts.
func (s *Study) Metrics(label string) *obs.Snapshot {
	shards := []obs.ShardMetrics{obs.Capture("shared", s.Topo.Net)}
	if s.fleet != nil {
		shards = append(shards, s.fleet.Metrics(label).Shards...)
	}
	return obs.NewSnapshot(label, shards...)
}
