package measure

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recordroute/internal/obs"
	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

// Fleet is the executor as callers outside the study layer see it
// (Study.Fleet). ParallelCampaign is its only implementation; it stays
// an interface only because the benchmark harness (benchmark/ladder.go,
// a module of its own) type-asserts Study.Fleet's result to
// *ParallelCampaign.
//
// A primitive completes on every replica or fails: when a replica
// panics mid-primitive, the others finish it (so their batches are
// journaled), and then the primitive panics on the caller's goroutine —
// with the Canceled payload itself for a cooperative abort, with a
// ShardError carrying the stack for anything else — before its clocks
// sync or its phase is sealed. Every later primitive raises the same
// failure again. No primitive returns a partial per-VP map.
type Fleet interface {
	// NumShards returns the replica count.
	NumShards() int
	// PingRRAll sends one ping-RR from every VP to every destination.
	PingRRAll(dests []netip.Addr, opts probe.Options, orderFor func(vp string, dests []netip.Addr) []netip.Addr) map[string][]probe.Result
	// PingBatchVP sends count plain pings per destination from the
	// single named VP.
	PingBatchVP(vp string, dests []netip.Addr, count int, opts probe.Options) [][]probe.Result
	// ShardErrors reports the failure that aborted the fleet; empty
	// while every primitive has completed.
	ShardErrors() []ShardError
}

// ParallelCampaign is the campaign executor: it runs collect-all
// primitives over a roster of vantage points placed on K replicas, each
// an independent deterministic simulator engine. VPs are placed
// round-robin by their campaign index, so each VP's complete probe
// stream — pacing, source-proximate policer interactions, timeouts —
// plays out inside exactly one engine. With one replica (NewFleet at
// K=1) that engine is the roster's own and every primitive runs inline
// on the caller's goroutine; with more, each replica is a clone of one
// built topology's frozen snapshot, each primitive dispatches the live
// replicas over a work-stealing group of at most min(K, GOMAXPROCS,
// NumCPU) goroutines, and the per-replica results merge back into the
// per-VP ordering one engine produces.
//
// Determinism contract: for workloads whose only cross-VP coupling is
// through destination-side state that stays inactive (edge policers
// below their rate), every Result field — the reply's IP-ID included, a
// function of the replying device and the virtual time it answers — is
// byte-identical at any K, and experiment summaries built from them are
// byte-identical. Experiments that deliberately saturate shared
// destination-side policers (Figure 4) place every VP on replica 0
// (PingRROneEngine), because there the aggregate cross-VP arrival
// process is the measured effect, and spreading VPs over replicas would
// change the drops. The cloud roster is placed like the platform one,
// on the same prober IDs (its VPs are other hosts).
//
// After each primitive, every replica clock is advanced to the maximum
// replica time, which equals the time one engine would show — so later
// phases start at the same virtual instant in every replica.
type ParallelCampaign struct {
	src        *topology.Topology // the build every cloned replica is cloned from
	vpNames    []string           // the platform roster in campaign order; index i has prober ID 0x4000+i
	cloudNames []string           // the cloud roster likewise
	shards     int
	// the one replica's rosters when they are the fleet's own (NewFleet at K=1)
	inline, inlineClouds *Campaign

	buildOnce sync.Once
	replicas  []*replica
	vpIndex   map[string]int // platform VP name → campaign index (prober ID base)

	observer *obs.Observer   // applied to each cloned replica at init; nil observes nothing
	journal  *Journal        // nil unless the campaign is journaled
	ctx      context.Context // nil unless cancellation is armed (SetContext)
	failure  *ShardError     // the replica failure that aborted the fleet; nil while healthy
	// seqBase is the sequence number every prober starts the current
	// phase at (rebase): phase·seqStride mod 2^16, phases counted
	// whether journaled or not.
	seqBase uint16
}

var _ Fleet = (*ParallelCampaign)(nil)

// replica is one engine of the fleet: the roster of the VPs assigned to
// it (with their campaign prober IDs). During a dispatch exactly one
// goroutine runs a given replica (work-stealing hands each index out
// once).
type replica struct {
	*Campaign
	clouds *Campaign // the replica's share of the cloud roster, on the same engine
	idx    int       // replica index within the fleet

	// ghosts are lazily created stand-ins for VPs homed on other
	// replicas, used by the destination-sharded single-VP phase
	// (PingBatchVP) and the pooled placement: the same named host on this replica,
	// driven by a prober with the VP's campaign ID so wire images match
	// one engine's byte-for-byte. Safe because the VP's home prober lives
	// in a different replica engine — IDs never clash within one engine —
	// and this replica's host had no sniffer before. Created and used
	// only from this replica's dispatch goroutine.
	ghosts map[string]*VantagePoint
}

// run executes fn against the replica and returns what a panic on the
// replica's goroutine raised, nil when fn returned: a cooperative abort
// as its Canceled payload, an expected shutdown that needs no stack;
// any other panic with its stack.
func (rep *replica) run(fn func(*replica)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(Canceled); ok {
				err = c
				return
			}
			err = fmt.Errorf("shard %d panicked at t=%v: %v\n%s",
				rep.idx, rep.Eng.Now(), r, debug.Stack())
		}
	}()
	fn(rep)
	return nil
}

// effectiveWorkers bounds a dispatch's goroutine count: no more than
// one per work item, and no more than the host can actually run in
// parallel. GOMAXPROCS alone is not enough — a 1-CPU host with
// GOMAXPROCS=4 would spawn four goroutines to time-slice one core,
// which is pure overhead (the confound behind the original "negative
// scaling" baseline numbers).
func effectiveWorkers(n int) int {
	if p := runtime.GOMAXPROCS(0); p < n {
		n = p
	}
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	return n
}

// dispatch runs fn(0) … fn(n-1), each index exactly once. With an
// effective worker bound of one the loop runs inline on the caller's
// goroutine — no spawn, no synchronization; otherwise a work-stealing
// group of w goroutines pulls indices from a shared atomic counter until
// they are drained. Goroutines live only for the dispatch, so campaigns
// hold no pool to leak and idle fleets cost nothing.
func dispatch(n int, fn func(i int)) {
	w := effectiveWorkers(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ShardError reports the replica failure that aborted a fleet: the
// replica index, the vantage points assigned to it, and the recovered
// failure. A primitive raises it as its panic value.
type ShardError struct {
	// Shard is the replica index within the fleet.
	Shard int
	// VPs names the vantage points assigned to the failed replica.
	VPs []string
	// Err is the recovered failure: the Canceled payload of a
	// cooperative abort, otherwise the panic with its stack.
	Err error
}

// Error satisfies the error interface.
func (e ShardError) Error() string {
	return fmt.Sprintf("measure: shard %d (VPs %s): %v", e.Shard, strings.Join(e.VPs, ","), e.Err)
}

// NewParallelCampaignFrom returns a K-replica executor over src's
// platform and cloud VPs whose replicas are all cloned from src's frozen snapshot
// — no regeneration at all; the replicas are stamped out lazily, on the
// first primitive. The source keeps working independently (its engine
// state never leaks into the pristine clones). shards below 1 is an
// error; shards above the VP count is clamped (an empty replica would
// only waste memory).
func NewParallelCampaignFrom(src *topology.Topology, shards int) (*ParallelCampaign, error) {
	if shards < 1 {
		return nil, fmt.Errorf("measure: %d shards", shards)
	}
	pc := &ParallelCampaign{src: src, shards: min(shards, max(len(src.VPs), 1))}
	for _, v := range src.VPs {
		pc.vpNames = append(pc.vpNames, v.Name)
	}
	for _, v := range src.CloudVPs {
		pc.cloudNames = append(pc.cloudNames, v.Name)
	}
	return pc, nil
}

// NewFleet returns the executor over platform roster c and cloud roster
// clouds (on c's engine) on shards replicas, clamped to c's VP count.
// With one, the replica is the two rosters, run inline on c's engine
// with no clone, and they stay their owner's to observe and capture
// (Observe and Metrics leave them alone); with more, each is a clone of
// c's topology carrying its share of both, as NewParallelCampaignFrom
// builds them.
func NewFleet(c, clouds *Campaign, shards int) *ParallelCampaign {
	pc := &ParallelCampaign{src: c.topo, shards: min(max(shards, 1), max(len(c.VPs), 1))}
	for _, vp := range c.VPs {
		pc.vpNames = append(pc.vpNames, vp.Name)
	}
	for _, vp := range clouds.VPs {
		pc.cloudNames = append(pc.cloudNames, vp.Name)
	}
	if pc.shards == 1 {
		pc.inline, pc.inlineClouds = c, clouds
	}
	return pc
}

// AttachJournal makes the campaign journaled: every primitive becomes
// one quantized phase whose completed per-VP batches stream to j, and
// batches j already carries (from a resumed run) are skipped instead of
// re-probed. Must be called before the first primitive — the phase
// numbering starts at the campaign's first event.
func (pc *ParallelCampaign) AttachJournal(j *Journal) { pc.journal = j }

// Journal returns the attached journal, or nil.
func (pc *ParallelCampaign) Journal() *Journal { return pc.journal }

// SetContext arms cooperative cancellation: once ctx is done, the
// campaign aborts — with a Canceled panic the caller recovers and
// classifies via CanceledFrom — at its next deterministic boundary.
// Boundaries are the start of every primitive (a journal phase
// boundary) and each per-VP batch checkpoint (the batch that just
// completed is recorded first, so every journaled batch stays complete
// and resume-safe; the primitive raises the abort once its replicas
// stop). Mid-drain engine work between checkpoints is never
// interrupted — that is what keeps cancellation deterministic
// (DESIGN.md §13).
func (pc *ParallelCampaign) SetContext(ctx context.Context) { pc.ctx = ctx }

// NumShards returns the replica count, already clamped to the VP count.
func (pc *ParallelCampaign) NumShards() int { return pc.shards }

// init assembles the replicas on first use. A cloned replica is a clone
// of the source's frozen snapshot, never the source itself, because the
// source engine may already have run traffic; cloning shares the frozen
// FIBs, routes, and addressing, so spin-up is a small multiple of a
// single build regardless of K. An inline replica is the rosters
// themselves.
func (pc *ParallelCampaign) init() {
	pc.buildOnce.Do(func() {
		k := pc.shards
		pc.replicas = make([]*replica, k)
		if pc.inline != nil {
			pc.replicas[0] = &replica{Campaign: pc.inline, clouds: pc.inlineClouds}
		} else {
			snap := topology.SnapshotOf(pc.src)
			// Distinct indices write distinct replica slots.
			dispatch(k, func(s int) {
				topo := snap.Clone()
				pc.replicas[s] = &replica{idx: s, Campaign: newRoster(topo), clouds: newRoster(topo)}
			})
			for i, name := range pc.vpNames {
				rep := pc.replicas[i%k]
				rep.add(rep.topo.VPByName(name), i)
			}
			for i, name := range pc.cloudNames {
				rep := pc.replicas[i%k]
				rep.clouds.add(rep.topo.VPByName(name), i)
			}
		}
		pc.vpIndex = make(map[string]int, len(pc.vpNames))
		for i, name := range pc.vpNames {
			pc.vpIndex[name] = i
		}
		for _, rep := range pc.replicas {
			rep.Observe(pc.observer)
			rep.clouds.Observe(pc.observer)
		}
	})
}

// VP returns the named vantage point's replica instance, or nil.
// Probes started on it run inside that VP's replica engine.
func (pc *ParallelCampaign) VP(name string) *VantagePoint {
	pc.init()
	i, ok := pc.vpIndex[name]
	if !ok {
		return nil
	}
	return pc.replicas[i%pc.shards].VP(name)
}

// VPNames lists the vantage points in campaign order, assembling the
// replicas if they are not yet.
func (pc *ParallelCampaign) VPNames() []string {
	pc.init()
	return pc.vpNames
}

// eachShard runs fn once per replica through dispatch (inline or
// work-stealing); fn owns its replica's engine for the duration. A
// replica that panics stops, the others run fn to its end, and then the
// first failure in replica order aborts the fleet (raise), naming the
// VPs placed returns for that replica.
func (pc *ParallelCampaign) eachShard(placed func(*replica) []*VantagePoint, fn func(*replica)) {
	errs := make([]error, len(pc.replicas))
	dispatch(len(pc.replicas), func(i int) { errs[i] = pc.replicas[i].run(fn) })
	for i, err := range errs {
		if err != nil {
			var names []string
			for _, vp := range placed(pc.replicas[i]) {
				names = append(names, vp.Name)
			}
			pc.failure = &ShardError{Shard: i, VPs: names, Err: err}
			pc.raise()
		}
	}
}

// raise panics with the failure that aborted the fleet, if any: a
// cooperative abort as its Canceled payload, anything else as the
// ShardError.
func (pc *ParallelCampaign) raise() {
	if pc.failure == nil {
		return
	}
	if c, ok := pc.failure.Err.(Canceled); ok {
		panic(c)
	}
	panic(*pc.failure)
}

// ShardErrors reports the replica failure that aborted the fleet; empty
// while every primitive has completed.
func (pc *ParallelCampaign) ShardErrors() []ShardError {
	if pc.failure == nil {
		return nil
	}
	return []ShardError{*pc.failure}
}

// syncClocks advances every replica clock to the fleet-wide maximum —
// exactly the time one engine would have reached, since its end time is
// the maximum over the same event set.
func (pc *ParallelCampaign) syncClocks() {
	var end time.Duration
	for _, rep := range pc.replicas {
		end = max(end, rep.Eng.Now())
	}
	for _, rep := range pc.replicas {
		rep.Eng.RunUntil(end)
	}
}

// beginPhase opens a phase for one primitive — and a journal phase on a
// journaled campaign, which journaled reports — with every prober
// rebased (rebase). Every primitive passes through here, so it doubles
// as the phase-boundary check: a fleet a failure aborted raises it
// again, and an armed, expired context aborts, before the phase record
// is written or any probe is started.
func (pc *ParallelCampaign) beginPhase(kind string) (phase int, journaled bool) {
	pc.init()
	pc.raise()
	checkCanceled(pc.ctx)
	pc.rebase()
	if pc.journal == nil {
		return 0, false
	}
	return pc.journal.beginPhase(kind), true
}

// seqStride spaces the phases' sequence bases: odd, so the bases of
// 2^16 consecutive phases are all distinct.
const seqStride = 0x9e37

// rebase restarts every prober of the fleet, home VPs, clouds and ghosts, at the
// phase's sequence base with no RTT estimate (probe.Prober.Rebase). A
// phase then sends the same probes whether the phases before it were
// probed or restored from a journal, and on whichever replica it runs.
func (pc *ParallelCampaign) rebase() {
	for _, rep := range pc.replicas {
		for _, vp := range rep.VPs {
			vp.Prober.Rebase(pc.seqBase)
		}
		for _, vp := range rep.clouds.VPs {
			vp.Prober.Rebase(pc.seqBase)
		}
		for _, vp := range rep.ghosts {
			vp.Prober.Rebase(pc.seqBase)
		}
	}
}

// checkpoint records one freshly completed batch on a journaled
// campaign and then honors cancellation: the completed batch is
// journaled first, so aborting here loses nothing that was measured,
// and a resumed run re-probes exactly the batches that never
// completed.
func (pc *ParallelCampaign) checkpoint(record func(*Journal)) {
	if pc.journal != nil {
		record(pc.journal)
	}
	checkCanceled(pc.ctx)
}

// endPhase closes a phase and rebases every prober to the next one's
// base, so what is probed between phases, directly on the roster, does
// not depend on whether the phase was probed or restored. A journaled
// phase's end is then quantized: every replica clock is advanced to the next
// quantum boundary, so the following phase starts at exactly
// (phase+1)·Quantum in this run and in any resumed replay of it — the
// alignment the resume-equals-uninterrupted property rests on
// (clock-derived fault draws see identical times both ways). A phase
// draining past its boundary means the quantum is too small for the
// workload; that corrupts the alignment silently, so it panics instead.
func (pc *ParallelCampaign) endPhase(phase int, journaled bool) {
	pc.seqBase += seqStride
	pc.rebase()
	if !journaled {
		return
	}
	boundary := time.Duration(phase+1) * pc.journal.Quantum()
	for i, rep := range pc.replicas {
		if now := rep.Eng.Now(); now > boundary {
			panic(fmt.Sprintf("measure: journal quantum %v too small: shard %d drained phase %d at t=%v",
				pc.journal.Quantum(), i, phase, now))
		}
		rep.Eng.RunUntil(boundary)
	}
}

// batchCodec journals one primitive's batches: archived restores a batch
// a resumed journal holds under key, and record journals a fresh one
// under key (streaming it as sinkVP). A primitive with no codec is
// re-executed on resume.
type batchCodec[T any] struct {
	archived func(j *Journal, phase int, key string) (T, bool)
	record   func(j *Journal, phase int, kind, key, sinkVP string, v T)
}

// flatBatches and groupedBatches are the codecs of flat result lists and
// of per-destination result groups.
var (
	flatBatches    = &batchCodec[[]probe.Result]{(*Journal).archivedResults, (*Journal).recordResults}
	groupedBatches = &batchCodec[[][]probe.Result]{(*Journal).archivedGroups, (*Journal).recordGroups}
)

// placement is where a phase's VPs run: home puts each platform VP on
// its home replica, clouds each cloud VP on its own, and pooled every
// platform VP on replica 0, as a ghost (shardVP) where it is not home.
type placement uint8

const (
	home placement = iota
	clouds
	pooled
)

// placed returns the VPs rep runs in a phase placed at, in campaign order.
func (pc *ParallelCampaign) placed(rep *replica, at placement) (vps []*VantagePoint) {
	switch {
	case at == home:
		return rep.VPs
	case at == clouds:
		return rep.clouds.VPs
	case rep.idx == 0:
		for _, name := range pc.vpNames {
			vps = append(vps, pc.shardVP(rep, name))
		}
	}
	return vps
}

// collect is the shape of every per-VP primitive: one phase in which
// each VP runs at most one batch inside the replica at places it on.
// start begins vp's batch on rep and hands it done; a VP start leaves
// out is absent from the result map. On a journaled campaign the
// batches the journal already holds are restored instead of re-probed,
// each fresh batch is checkpointed as it completes, and seal, when set,
// closes the phase over the merged map before its clocks are quantized.
// A pooled phase is restored whole or not at all: its VPs contend at
// shared policers, so a VP re-probed without the archived VPs' traffic
// would see other drops. Re-probed whole, it journals only the batches
// the journal lacks.
func collect[T any](pc *ParallelCampaign, kind string, at placement, codec *batchCodec[T], start func(rep *replica, vp *VantagePoint, done func(T)), seal func(out map[string]T, phase int, journaled bool)) map[string]T {
	phase, journaled := pc.beginPhase(kind)
	names := pc.vpNames
	if at == clouds {
		names = pc.cloudNames
	}
	out := make(map[string]T, len(names))
	archived := make(map[string]bool)
	if journaled && codec != nil {
		for _, name := range names {
			if v, ok := codec.archived(pc.journal, phase, name); ok {
				out[name], archived[name] = v, true
			}
		}
	}
	restore := at != pooled || len(archived) == len(names)
	var mu sync.Mutex
	pc.eachShard(func(rep *replica) []*VantagePoint { return pc.placed(rep, at) }, func(rep *replica) {
		for _, vp := range pc.placed(rep, at) {
			if restore && archived[vp.Name] {
				continue
			}
			start(rep, vp, func(v T) {
				mu.Lock()
				out[vp.Name] = v
				mu.Unlock()
				pc.checkpoint(func(j *Journal) {
					if codec != nil && !archived[vp.Name] {
						codec.record(j, phase, kind, vp.Name, vp.Name, v)
					}
				})
			})
		}
		rep.Eng.Run()
	})
	pc.syncClocks()
	if seal != nil {
		seal(out, phase, journaled)
	}
	pc.endPhase(phase, journaled)
	return out
}

// PingRRAll sends one ping-RR from every VP to every destination (per-VP
// order permuted via orderFor when set), and returns the results keyed
// by VP name, in that VP's send order.
func (pc *ParallelCampaign) PingRRAll(dests []netip.Addr, opts probe.Options, orderFor func(vp string, dests []netip.Addr) []netip.Addr) map[string][]probe.Result {
	return pc.pingRR("ping-rr-all", home, dests, opts, orderFor)
}

// PingRROneEngine is PingRRAll with every VP on replica 0: their probe
// streams contend at shared policers as on one engine, the effect
// Figure 4 measures.
func (pc *ParallelCampaign) PingRROneEngine(dests []netip.Addr, opts probe.Options, orderFor func(vp string, dests []netip.Addr) []netip.Addr) map[string][]probe.Result {
	return pc.pingRR("ping-rr-one-engine", pooled, dests, opts, orderFor)
}

func (pc *ParallelCampaign) pingRR(kind string, at placement, dests []netip.Addr, opts probe.Options, orderFor func(vp string, dests []netip.Addr) []netip.Addr) map[string][]probe.Result {
	return collect(pc, kind, at, flatBatches, func(_ *replica, vp *VantagePoint, done func([]probe.Result)) {
		ds := dests
		if orderFor != nil {
			ds = orderFor(vp.Name, dests)
		}
		vp.Batch(ds, probe.PingRR, opts, done)
	}, nil)
}

// PingAll sends count plain pings per destination from every VP.
func (pc *ParallelCampaign) PingAll(dests []netip.Addr, count int, opts probe.Options) map[string][][]probe.Result {
	return collect(pc, "ping-all", home, groupedBatches, func(_ *replica, vp *VantagePoint, done func([][]probe.Result)) {
		vp.PingBatch(dests, 0, len(dests), count, opts, done)
	}, nil)
}

// PingRRUDPAll sends one ping-RRudp from every VP to its listed targets.
func (pc *ParallelCampaign) PingRRUDPAll(perVP map[string][]netip.Addr, opts probe.Options) map[string][]probe.Result {
	return collect(pc, "ping-rr-udp-all", home, flatBatches, func(_ *replica, vp *VantagePoint, done func([]probe.Result)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.Batch(ds, probe.PingRRUDP, opts, done)
		}
	}, nil)
}

// TTLPingRRAll sends TTL-limited ping-RRs: per VP, targets[i] probed
// with ttls[i].
func (pc *ParallelCampaign) TTLPingRRAll(perVP map[string][]netip.Addr, ttls map[string][]uint8, opts probe.Options) map[string][]probe.Result {
	return collect(pc, "ttl-ping-rr-all", home, flatBatches, func(_ *replica, vp *VantagePoint, done func([]probe.Result)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.TTLPingRRBatch(ds, ttls[vp.Name], opts, done)
		}
	}, nil)
}

// TracerouteAll traces each platform VP's listed targets. Traces have
// no journal codec, so a resumed campaign re-executes the phase.
func (pc *ParallelCampaign) TracerouteAll(perVP map[string][]netip.Addr, opts TraceOptions) map[string][]Trace {
	return pc.traceroute("traceroute-all", home, perVP, opts)
}

// CloudTracerouteAll is TracerouteAll from the cloud roster.
func (pc *ParallelCampaign) CloudTracerouteAll(perCloud map[string][]netip.Addr, opts TraceOptions) map[string][]Trace {
	return pc.traceroute("cloud-traceroute-all", clouds, perCloud, opts)
}

func (pc *ParallelCampaign) traceroute(kind string, at placement, perVP map[string][]netip.Addr, opts TraceOptions) map[string][]Trace {
	return collect(pc, kind, at, nil, func(_ *replica, vp *VantagePoint, done func([]Trace)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.TracerouteBatch(ds, opts, done)
		}
	}, nil)
}

// SpecBatchesAll starts all of each VP's listed spec batches at once and
// returns its results one group per batch, journaled as one record.
func (pc *ParallelCampaign) SpecBatchesAll(perVP map[string][][]probe.Spec, opts probe.Options) map[string][][]probe.Result {
	return collect(pc, "spec-batches-all", home, groupedBatches, func(_ *replica, vp *VantagePoint, done func([][]probe.Result)) {
		batches := perVP[vp.Name]
		if len(batches) == 0 {
			return
		}
		groups, left := make([][]probe.Result, len(batches)), len(batches)
		for i, specs := range batches {
			vp.Prober.StartBatch(specs, opts, func(rs []probe.Result) {
				if groups[i], left = rs, left-1; left == 0 {
					done(groups)
				}
			})
		}
	}, nil)
}

// shardVP returns the named VP's prober instance on rep — the assigned
// VantagePoint on its home replica, a lazily created ghost elsewhere
// (see replica.ghosts). Must be called from rep's dispatch goroutine.
func (pc *ParallelCampaign) shardVP(rep *replica, name string) *VantagePoint {
	if vp := rep.VP(name); vp != nil {
		return vp
	}
	if vp := rep.ghosts[name]; vp != nil {
		return vp
	}
	rv := rep.topo.VPByName(name)
	if rv == nil {
		return nil
	}
	vp := NewVantagePoint(rv.Name, rv.Host, rep.Eng, uint16(0x4000+pc.vpIndex[name]))
	vp.Prober.Rebase(pc.seqBase)
	if o := pc.observer; o.Active() && o.Trace != nil {
		vp.Prober.SetTracer(o.Trace.ProberTracer(vp.Name))
	}
	if rep.ghosts == nil {
		rep.ghosts = make(map[string]*VantagePoint)
	}
	rep.ghosts[name] = vp
	return vp
}

// destRange is shard s's contiguous slice of an n-item destination
// list split across k shards: balanced, deterministic, order-preserving.
func destRange(n, k, s int) (lo, hi int) {
	return s * n / k, (s + 1) * n / k
}

// rangeKey is the journal archive key for one shard's slice of a
// destination-sharded single-VP phase. It is journal-internal: range
// records stream to the live sink under the VP's real name.
func rangeKey(vp string, shard int) string { return fmt.Sprintf("%s#%d", vp, shard) }

// PingBatchVP sends count plain pings per destination from the single
// named VP, fanning contiguous destination ranges across the replicas:
// replica s probes destRange(len(dests), K, s) through the VP's home
// prober or a ghost (shardVP). Because every probe's send time and
// sequence numbers derive from its global destination index
// (probe.Batch; DESIGN.md §15), the merged per-destination groups are
// invariant under K — including per-packet fault draws, which are
// content-keyed on the seq. That holds only with fixed timeouts, so the
// phase turns opts.Adaptive off: a range's RTT estimate would see only
// its own replies. On a journaled campaign the ranges the journal
// already holds are restored, and each fresh one is checkpointed under
// its range key and streamed as the VP itself.
func (pc *ParallelCampaign) PingBatchVP(name string, dests []netip.Addr, count int, opts probe.Options) [][]probe.Result {
	const kind = "ping-batch-vp"
	opts.Adaptive = false
	grouped := make([][]probe.Result, len(dests))
	k := pc.shards
	phase, journaled := pc.beginPhase(kind)
	restored := make([]bool, len(pc.replicas))
	if journaled {
		for s := range pc.replicas {
			if gs, ok := groupedBatches.archived(pc.journal, phase, rangeKey(name, s)); ok {
				lo, _ := destRange(len(dests), k, s)
				copy(grouped[lo:], gs)
				restored[s] = true
			}
		}
	}
	pc.eachShard(func(rep *replica) []*VantagePoint { return []*VantagePoint{pc.shardVP(rep, name)} }, func(rep *replica) {
		lo, hi := destRange(len(dests), k, rep.idx)
		if lo == hi || restored[rep.idx] {
			return
		}
		vp := pc.shardVP(rep, name)
		if vp == nil {
			return
		}
		vp.PingBatch(dests, lo, hi, count, opts, func(gs [][]probe.Result) {
			copy(grouped[lo:], gs) // disjoint ranges: no two replicas share an element
			pc.checkpoint(func(j *Journal) { groupedBatches.record(j, phase, kind, rangeKey(name, rep.idx), name, gs) })
		})
		rep.Eng.Run()
	})
	pc.syncClocks()
	pc.endPhase(phase, journaled)
	return grouped
}
