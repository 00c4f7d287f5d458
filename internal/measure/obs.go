package measure

import (
	"fmt"

	"recordroute/internal/obs"
)

// Observe attaches an observability configuration to every replica the
// fleet cloned — existing ones immediately, lazily built ones at init.
// Each replica's network and probers report into the same observer; the
// trace ring is mutex-guarded, so concurrent replicas may interleave
// their (replica-local-clock-stamped) events. An inline replica is its
// rosters' owner's to observe (Campaign.Observe), so an inline fleet
// ignores the call.
func (pc *ParallelCampaign) Observe(o *obs.Observer) {
	if !o.Active() || pc.inline != nil {
		return
	}
	pc.observer = o
	for _, rep := range pc.replicas {
		rep.Observe(o)
		rep.clouds.Observe(o)
	}
}

// Metrics captures every replica the fleet cloned ("shard0".."shardN")
// into a labeled snapshot; an inline fleet's one replica is its roster's
// owner's to capture, so its snapshot has no shards. A fleet a replica
// failure aborted is captured as the failed primitive left it;
// ShardErrors names the failed replica. The merged totals are
// replica-count-invariant for sharding-safe workloads (the determinism
// contract): every simulated event happens exactly once in exactly one
// engine regardless of K.
func (pc *ParallelCampaign) Metrics(label string) *obs.Snapshot {
	var shards []obs.ShardMetrics
	if pc.inline == nil {
		pc.init()
		for i, rep := range pc.replicas {
			shards = append(shards, obs.Capture(fmt.Sprintf("shard%d", i), rep.Net))
		}
	}
	return obs.NewSnapshot(label, shards...)
}
