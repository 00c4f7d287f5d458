package measure

import (
	"fmt"
	"net/netip"

	"recordroute/internal/netsim"
	"recordroute/internal/trace"
)

// Stop-set traffic counters, bumped once per completed VP round on
// the engine that ran it. They are ordinary (non-local) counters, so
// obs merges them shard-invariantly: per-VP stats sum to the same
// totals whatever the partition (DESIGN.md §14).
const (
	counterGlobalHit   = "trace.stop.global.hit"
	counterLocalHit    = "trace.stop.local.hit"
	counterStopMiss    = "trace.stop.miss"
	counterProbesSaved = "trace.probes.saved"
)

// countRound surfaces one VP round's stop-set economics as engine
// counters. All four are always touched so every engine that ran a
// round carries the full counter set, keeping snapshot keys stable.
func countRound(net *netsim.Network, st trace.Stats) {
	net.Count(counterGlobalHit, uint64(st.GlobalStops))
	net.Count(counterLocalHit, uint64(st.LocalStops))
	net.Count(counterStopMiss, uint64(st.Misses))
	net.Count(counterProbesSaved, uint64(st.Saved))
}

// DoubletreeAll runs one traceroute round: every VP with targets in
// perVP traces them sequentially inside its own replica under sess's
// stop sets (or exhaustively when opts.Exhaustive), against the frozen
// sess.Global; after every replica drains, the per-VP deltas are
// unioned into sess.Global — so the next round's forward probing stops
// on everything this round discovered. Journaled, each completed VP
// round is checkpointed as its traces (stop-set effects replay from
// them via trace.Rebuild) and the merged set's codec bytes seal the
// phase.
func (pc *ParallelCampaign) DoubletreeAll(perVP map[string][]netip.Addr, sess *trace.Session, opts trace.Options) map[string]*trace.VPRound {
	for _, name := range pc.vpNames {
		if len(perVP[name]) > 0 {
			sess.State(name) // pre-create while single-threaded
		}
	}
	rounds := &batchCodec[*trace.VPRound]{
		archived: func(j *Journal, phase int, name string) (*trace.VPRound, bool) {
			trs, ok := j.archivedTraces(phase, name)
			if !ok {
				return nil, false
			}
			return trace.Rebuild(name, sess.State(name), sess.PrefixOf, trs, opts), true
		},
		record: func(j *Journal, phase int, kind, name, _ string, r *trace.VPRound) {
			j.recordTraces(phase, kind, name, r.Traces)
		},
	}
	return collect(pc, "doubletree-all", home, rounds, func(rep *replica, vp *VantagePoint, done func(*trace.VPRound)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			trace.Run(vp.Name, vp.Prober, sess.State(vp.Name), sess.Global, sess.PrefixOf, ds, opts, func(r *trace.VPRound) {
				countRound(rep.Net, r.Stats)
				done(r)
			})
		}
	}, func(out map[string]*trace.VPRound, phase int, journaled bool) {
		for _, r := range out { // min-merge union commutes: any order
			sess.Merge(r.Delta)
		}
		if journaled {
			data, err := sess.Global.MarshalBinary()
			if err != nil {
				panic(fmt.Sprintf("measure: stop-set checkpoint: %v", err))
			}
			pc.journal.checkStopSet(phase, data)
		}
	})
}
