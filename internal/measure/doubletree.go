package measure

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

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

// mergeDeltas unions a round's per-VP deltas into the session's
// global set, walking VPs in sorted name order (the order is
// immaterial — min-merge union commutes, which is the whole point —
// but a deterministic walk keeps failures reproducible). Each delta
// passes through the canonical codec inside Session.Merge.
func mergeDeltas(sess *trace.Session, out map[string]*trace.VPRound) {
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := sess.Merge(out[name].Delta); err != nil {
			panic(fmt.Sprintf("measure: stop-set merge: %v", err))
		}
	}
}

// DoubletreeAll runs one traceroute round: every VP with targets in
// perVP traces them sequentially under sess's stop sets (or
// exhaustively when opts.Exhaustive), then the per-VP deltas are
// unioned into sess.Global — so the next round's forward probing
// stops on everything this round discovered.
func (c *Campaign) DoubletreeAll(perVP map[string][]netip.Addr, sess *trace.Session, opts trace.Options) map[string]*trace.VPRound {
	checkCanceled(c.ctx)
	out := make(map[string]*trace.VPRound, len(perVP))
	for _, vp := range c.VPs {
		if len(perVP[vp.Name]) > 0 {
			sess.State(vp.Name) // pre-create while single-threaded
		}
	}
	for _, vp := range c.VPs {
		ds := perVP[vp.Name]
		if len(ds) == 0 {
			continue
		}
		trace.Run(vp.Name, vp.Prober, sess.State(vp.Name), sess.Global, sess.PrefixOf, ds, opts, func(r *trace.VPRound) {
			out[vp.Name] = r
			countRound(c.Net, r.Stats)
		})
	}
	c.Eng.Run()
	mergeDeltas(sess, out)
	return out
}

// DoubletreeAll is the sharded round: each VP traces inside its own
// replica against the frozen sess.Global, per-VP deltas are merged
// after every shard drains, and — journaled — each completed VP round
// is checkpointed as its traces (stop-set effects replay from them via
// trace.Rebuild) with the merged set's codec bytes sealing the phase.
func (pc *ParallelCampaign) DoubletreeAll(perVP map[string][]netip.Addr, sess *trace.Session, opts trace.Options) map[string]*trace.VPRound {
	pc.init()
	phase, journaled := pc.beginPhase("doubletree-all")
	out := make(map[string]*trace.VPRound, len(perVP))
	for _, name := range pc.vpNames {
		if len(perVP[name]) > 0 {
			sess.State(name) // pre-create while single-threaded
		}
	}
	skip := make(map[string]bool)
	if journaled {
		for _, name := range pc.vpNames {
			if trs, ok := pc.journal.archivedTraces(phase, name); ok {
				out[name] = trace.Rebuild(name, sess.State(name), sess.PrefixOf, trs, opts)
				skip[name] = true
				n := 0
				for _, t := range trs {
					n += t.ProbesSent()
				}
				pc.replaySeqs(name, n)
			}
		}
	}
	var mu sync.Mutex
	pc.eachShard(func(rep *replica) {
		for _, vp := range rep.vps {
			if skip[vp.Name] {
				continue
			}
			ds := perVP[vp.Name]
			if len(ds) == 0 {
				continue
			}
			trace.Run(vp.Name, vp.Prober, sess.State(vp.Name), sess.Global, sess.PrefixOf, ds, opts, func(r *trace.VPRound) {
				mu.Lock()
				out[vp.Name] = r
				mu.Unlock()
				countRound(rep.topo.Net, r.Stats)
				pc.checkpoint(func(j *Journal) { j.recordTraces(phase, "doubletree-all", vp.Name, r.Traces) })
			})
		}
		rep.eng.Run()
	})
	pc.syncClocks()
	mergeDeltas(sess, out)
	if journaled {
		data, err := sess.Global.MarshalBinary()
		if err != nil {
			panic(fmt.Sprintf("measure: stop-set checkpoint: %v", err))
		}
		pc.journal.checkStopSet(phase, data)
	}
	pc.endPhase(phase, journaled)
	return out
}
