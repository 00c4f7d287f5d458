package study

import (
	"recordroute/internal/obs"
)

// Observe attaches an observability configuration to every engine the
// study probes through, made or not — one made later inherits it: the
// study's own network and its VP probers (direct probes, and Table 1 at
// one shard), the fleet's cloned replicas, and the single-engine
// experiments' replica. Attach before running experiments; attaching
// never changes what a run computes (see package obs).
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
	if s.single != nil {
		s.single.vps.Observe(o)
		s.single.clouds.Observe(o)
	}
}

// Metrics captures a labeled snapshot spanning the study's engines, each
// exactly once: "shared" for the study's own network (direct probes, and
// Table 1 at one shard), one "shardN" entry per replica the fleet
// cloned, and "single" for the single-engine experiments' replica once
// made. Every simulated event lands in exactly one captured engine at
// any shard count, which is what makes Merged totals comparable across
// shard counts.
func (s *Study) Metrics(label string) *obs.Snapshot {
	shards := []obs.ShardMetrics{obs.Capture("shared", s.Topo.Net)}
	if s.fleet != nil {
		shards = append(shards, s.fleet.Metrics(label).Shards...)
	}
	if s.single != nil {
		shards = append(shards, obs.Capture("single", s.single.vps.Net))
	}
	return obs.NewSnapshot(label, shards...)
}
