package measure

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recordroute/internal/netsim"
	"recordroute/internal/obs"
	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

// ParallelCampaign executes campaign primitives across K shards, each an
// independent deterministic simulator replica cloned from one built
// topology's frozen snapshot. Vantage points are partitioned round-robin
// by their campaign index, so each VP's complete probe stream — pacing,
// source-proximate policer interactions, timeouts — plays out inside
// exactly one replica, bit-for-bit as it would inside the single shared
// engine. Each primitive dispatches the live shards over a work-stealing
// group of at most min(shards, GOMAXPROCS, NumCPU) goroutines — or
// inline on the caller's goroutine when that bound is one, so a
// single-shard fleet (or a single-CPU host) pays zero scheduling
// overhead — and the per-shard result maps merge back into the exact
// per-VP ordering the sequential Campaign produces.
//
// Determinism contract: for workloads whose only cross-VP coupling is
// through destination-side state that stays inactive (edge policers
// below their rate, IP-ID counters no analysis reads), every Result
// field except ReplyIPID is byte-identical to the sequential path, and
// experiment summaries built from them are byte-identical. ReplyIPID is
// exempt because destination IP-ID counters observe only shard-local
// traffic. Rate-limiting experiments that deliberately saturate shared
// destination-side policers (Figure 4) must keep using Campaign: there
// the aggregate cross-VP arrival process is the measured effect, and
// sharding it away would change the drops.
//
// After each primitive, every shard clock is advanced to the maximum
// shard time, which equals the time the sequential engine would show —
// so later phases start at the same virtual instant in every replica.
type ParallelCampaign struct {
	src    *topology.Topology // the build every replica is cloned from
	shards int

	buildOnce sync.Once
	replicas  []*replica
	vpShard   map[string]int // VP name → replica index
	vpIndex   map[string]int // VP name → campaign index (prober ID base)
	vpNames   []string       // campaign order, as the sequential path sees it

	observer *obs.Observer   // applied to each replica at init; nil observes nothing
	journal  *Journal        // nil unless the campaign is journaled
	ctx      context.Context // nil unless cancellation is armed (SetContext)
}

// Both executors satisfy the Fleet surface.
var (
	_ Fleet = (*Campaign)(nil)
	_ Fleet = (*ParallelCampaign)(nil)
)

// replica is one shard: a full topology replica plus the VantagePoints
// (with their original campaign prober IDs) assigned to it. A replica
// that panics during a primitive is marked dead and carries the
// recovered failure; dead replicas are excluded from every later
// primitive and clock sync. During a dispatch exactly one goroutine
// runs a given replica (work-stealing hands each index out once), so
// only that goroutine writes dead/err, and readers run after the
// dispatch joins — no lock.
type replica struct {
	idx  int // shard index within the fleet
	topo *topology.Topology
	eng  *netsim.Engine
	vps  []*VantagePoint

	// ghosts are lazily created stand-ins for VPs homed on other shards,
	// used by destination-sharded single-VP phases (PingBatchVP,
	// PingSeriesVP): the same named host on this replica, driven by a
	// prober with the VP's campaign ID so wire images match the
	// sequential run's byte-for-byte. Safe because the VP's home prober
	// lives in a different replica engine — IDs never clash within one
	// engine — and this replica's host had no sniffer before. Created
	// and used only from this replica's dispatch goroutine.
	ghosts map[string]*VantagePoint

	dead bool
	err  error
}

// run executes fn against the replica with panic containment: a panic
// kills only this shard — it is recovered, the replica is marked dead,
// and later primitives and clock syncs skip it, so the surviving shards
// keep producing results (the Fleet partial-results contract). A
// cooperative cancellation abort (Canceled) is an expected shutdown,
// not a crash, so it is recorded without the stack-trace noise.
func (rep *replica) run(fn func(*replica)) {
	defer func() {
		if r := recover(); r != nil {
			rep.dead = true
			if err, ok := CanceledFrom(r); ok {
				rep.err = fmt.Errorf("shard %d canceled at t=%v: %w", rep.idx, rep.eng.Now(), err)
				return
			}
			rep.err = fmt.Errorf("shard %d panicked at t=%v: %v\n%s",
				rep.idx, rep.eng.Now(), r, debug.Stack())
		}
	}()
	fn(rep)
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

// forShards runs fn once per replica in reps through dispatch, each
// under the replica's panic containment (replica.run).
func forShards(reps []*replica, fn func(*replica)) {
	dispatch(len(reps), func(i int) { reps[i].run(fn) })
}

// ShardError reports one shard that failed during a primitive: the
// replica index, the vantage points whose results are missing or
// partial because of it, and the recovered failure.
type ShardError struct {
	// Shard is the replica index within the fleet.
	Shard int
	// VPs names the vantage points assigned to the failed shard.
	VPs []string
	// Err is the recovered failure, including the panic stack.
	Err error
}

// Error satisfies the error interface.
func (e ShardError) Error() string {
	return fmt.Sprintf("measure: shard %d (VPs %s): %v", e.Shard, strings.Join(e.VPs, ","), e.Err)
}

// NewParallelCampaignFrom returns a K-shard campaign whose replicas are
// all cloned from an already-built topology's frozen snapshot — no
// regeneration at all; the fleet is assembled lazily, on the first
// primitive. The source keeps working independently (its engine state
// never leaks into the pristine clones), so a study can share one Build
// between its sequential campaign and its fleet. shards below 1 is an
// error; shards above the VP count is clamped (an empty replica would
// only waste memory).
func NewParallelCampaignFrom(src *topology.Topology, shards int) (*ParallelCampaign, error) {
	if shards < 1 {
		return nil, fmt.Errorf("measure: %d shards", shards)
	}
	return &ParallelCampaign{src: src, shards: shards}, nil
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
// boundary, caught on the caller's goroutine) and each per-VP batch
// checkpoint inside a journaled primitive (caught per shard: the batch
// that just completed is recorded first, then the shard dies as a
// canceled ShardError, so every journaled batch stays complete and
// resume-safe). Mid-drain engine work between checkpoints is never
// interrupted — that is what keeps cancellation deterministic
// (DESIGN.md §13).
func (pc *ParallelCampaign) SetContext(ctx context.Context) { pc.ctx = ctx }

// NumShards returns the shard count the campaign will use (clamped to
// the VP count once built).
func (pc *ParallelCampaign) NumShards() int {
	if pc.replicas != nil {
		return len(pc.replicas)
	}
	return pc.shards
}

// init assembles the shard fleet on first use: one route plane, K
// overlays. Every replica is a clone of the source's frozen snapshot,
// never the source itself, because the source engine may already have
// run traffic. Cloning shares the frozen FIBs, routes, and addressing,
// so fleet spin-up is a small multiple of a single build regardless of
// K.
func (pc *ParallelCampaign) init() {
	pc.buildOnce.Do(func() {
		src := pc.src
		snap := topology.SnapshotOf(src)
		k := pc.shards
		if n := len(src.VPs); k > n && n > 0 {
			k = n
		}
		// Stamp out the clones with the same bounded dispatch primitives
		// use; distinct indices write distinct replica slots.
		pc.replicas = make([]*replica, k)
		dispatch(k, func(s int) {
			topo := snap.Clone()
			pc.replicas[s] = &replica{idx: s, topo: topo, eng: topo.Net.Engine()}
		})
		// Partition VPs round-robin by campaign index, keeping the
		// sequential prober ID assignment (0x4000+i) so wire images and
		// reply matching are identical to Campaign's.
		pc.vpShard = make(map[string]int, len(src.VPs))
		pc.vpIndex = make(map[string]int, len(src.VPs))
		for i, v := range src.VPs {
			shard := i % k
			rep := pc.replicas[shard]
			rv := rep.topo.VPByName(v.Name)
			rep.vps = append(rep.vps, NewVantagePoint(rv.Name, rv.Host, rep.eng, uint16(0x4000+i)))
			pc.vpShard[v.Name] = shard
			pc.vpIndex[v.Name] = i
			pc.vpNames = append(pc.vpNames, v.Name)
		}
		for _, rep := range pc.replicas {
			pc.observeReplica(rep)
		}
	})
}

// VP returns the named vantage point's shard replica instance, or nil.
// Probes started on it run inside that VP's shard engine; follow with
// Run to drain and re-synchronize the fleet. VPs on a dead shard
// return nil too: their engine will never run again, so probes started
// there would hang forever.
func (pc *ParallelCampaign) VP(name string) *VantagePoint {
	pc.init()
	s, ok := pc.vpShard[name]
	if !ok || pc.replicas[s].dead {
		return nil
	}
	for _, vp := range pc.replicas[s].vps {
		if vp.Name == name {
			return vp
		}
	}
	return nil
}

// VPNames lists the vantage points in campaign (sequential) order.
func (pc *ParallelCampaign) VPNames() []string {
	pc.init()
	return pc.vpNames
}

// eachShard runs fn once per live replica via forShards (inline or
// work-stealing, see there); fn owns its replica's engine for the
// duration, and shard panics are contained per-replica (replica.run).
// ShardErrors reports any losses afterwards.
func (pc *ParallelCampaign) eachShard(fn func(*replica)) {
	live := pc.replicas[:0:0]
	for _, rep := range pc.replicas {
		if !rep.dead {
			live = append(live, rep)
		}
	}
	forShards(live, fn)
}

// ShardErrors reports the shards that died during earlier primitives,
// in shard order; empty while every replica is healthy. The named VPs
// are the ones whose results are missing or partial in primitives run
// since (and including) the one that killed the shard.
func (pc *ParallelCampaign) ShardErrors() []ShardError {
	var errs []ShardError
	for i, rep := range pc.replicas {
		if rep == nil || !rep.dead {
			continue
		}
		names := make([]string, 0, len(rep.vps))
		for _, vp := range rep.vps {
			names = append(names, vp.Name)
		}
		errs = append(errs, ShardError{Shard: i, VPs: names, Err: rep.err})
	}
	return errs
}

// syncClocks advances every shard clock to the fleet-wide maximum —
// exactly the time a single shared engine would have reached, since the
// sequential end time is the maximum over the same event set.
func (pc *ParallelCampaign) syncClocks() {
	var max time.Duration
	for _, rep := range pc.replicas {
		if rep.dead {
			continue
		}
		if now := rep.eng.Now(); now > max {
			max = now
		}
	}
	for _, rep := range pc.replicas {
		if rep.dead {
			continue
		}
		rep.eng.RunUntil(max)
	}
}

// beginPhase opens a journal phase for one primitive; journaled
// reports whether the campaign is journaled at all. Every primitive
// passes through here, so it doubles as the phase-boundary
// cancellation check: an armed, expired context aborts before the
// phase record is written or any probe is started.
func (pc *ParallelCampaign) beginPhase(kind string) (phase int, journaled bool) {
	checkCanceled(pc.ctx)
	if pc.journal == nil {
		return 0, false
	}
	return pc.journal.beginPhase(kind), true
}

// checkpoint records one freshly completed batch (flat or grouped) on a
// journaled campaign and then honors cancellation: the completed batch
// is journaled first, so aborting here loses nothing that was measured —
// the shard dies as a canceled ShardError at a per-VP checkpoint
// boundary, and a resumed run re-probes exactly the batches that never
// completed.
func (pc *ParallelCampaign) checkpoint(record func(*Journal)) {
	if pc.journal != nil {
		record(pc.journal)
	}
	checkCanceled(pc.ctx)
}

// endPhase quantizes a journaled phase's end: every live shard clock is
// advanced to the next quantum boundary, so the following phase starts
// at exactly (phase+1)·Quantum in this run and in any resumed replay of
// it — the alignment the resume-equals-uninterrupted property rests on
// (clock-derived fault draws see identical times both ways). A phase
// draining past its boundary means the quantum is too small for the
// workload; that corrupts the alignment silently, so it panics instead.
func (pc *ParallelCampaign) endPhase(phase int, journaled bool) {
	if !journaled {
		return
	}
	boundary := time.Duration(phase+1) * pc.journal.Quantum()
	for i, rep := range pc.replicas {
		if rep.dead {
			continue
		}
		if now := rep.eng.Now(); now > boundary {
			panic(fmt.Sprintf("measure: journal quantum %v too small: shard %d drained phase %d at t=%v",
				pc.journal.Quantum(), i, phase, now))
		}
	}
	for _, rep := range pc.replicas {
		if rep.dead {
			continue
		}
		rep.eng.RunUntil(boundary)
	}
}

// archivedFlat pre-fills out with the batches the journal already
// carries for this phase and returns the VP names to skip. Dead-shard
// VPs benefit too: their archived batches are restored even though
// their replica will never run again.
func (pc *ParallelCampaign) archivedFlat(phase int, journaled bool, out map[string][]probe.Result) map[string]bool {
	if !journaled {
		return nil
	}
	skip := make(map[string]bool)
	for _, name := range pc.vpNames {
		if rs, ok := pc.journal.archivedResults(phase, name); ok {
			out[name] = rs
			skip[name] = true
			pc.replaySeqs(name, consumedSeqs(rs))
		}
	}
	return skip
}

// consumedSeqs counts the sequence numbers a completed batch allocated:
// one per attempt actually sent (retransmissions get fresh seqs).
func consumedSeqs(rs []probe.Result) int {
	n := 0
	for _, r := range rs {
		n += r.Attempts
	}
	return n
}

// replaySeqs advances a VP's prober sequence counter past an archived
// batch. Probe wire images carry the seq and per-packet fault draws are
// content-keyed on them, so every VP must enter a re-executed phase
// with the counter position the original run had there — otherwise a
// fault plan would draw different packet fates on resume.
func (pc *ParallelCampaign) replaySeqs(name string, n int) {
	if vp := pc.VP(name); vp != nil {
		vp.Prober.SkipSeqs(n)
	}
}

// Run drains every shard engine with pending events and re-synchronizes
// the fleet clocks. Only dirty shards are dispatched: probes started
// directly on VPs (origin batches, alias collects) usually touch one
// shard, and draining the other K-1 idle engines — even inline — is
// wasted work between every phase of a study. On a journaled campaign
// the drain is a phase of its own: such single-VP work is cheap and a
// resumed run deterministically re-executes it rather than archives it.
func (pc *ParallelCampaign) Run() {
	pc.init()
	phase, journaled := pc.beginPhase("run")
	dirty := pc.replicas[:0:0]
	for _, rep := range pc.replicas {
		if !rep.dead && rep.eng.Pending() > 0 {
			dirty = append(dirty, rep)
		}
	}
	forShards(dirty, func(rep *replica) { rep.eng.Run() })
	pc.syncClocks()
	pc.endPhase(phase, journaled)
}

// PingRRAll sends one ping-RR from every VP to every destination, each
// VP inside its own shard, and merges the per-shard results into one
// map keyed by VP name in that VP's send order — the same shape and
// content Campaign.PingRRAll produces.
func (pc *ParallelCampaign) PingRRAll(dests []netip.Addr, opts probe.Options, orderFor func(vp string, dests []netip.Addr) []netip.Addr) map[string][]probe.Result {
	pc.init()
	phase, journaled := pc.beginPhase("ping-rr-all")
	out := make(map[string][]probe.Result, len(pc.vpNames))
	skip := pc.archivedFlat(phase, journaled, out)
	var mu sync.Mutex
	pc.eachShard(func(rep *replica) {
		for _, vp := range rep.vps {
			if skip[vp.Name] {
				continue
			}
			ds := dests
			if orderFor != nil {
				ds = orderFor(vp.Name, dests)
			}
			vp.Batch(ds, probe.PingRR, opts, func(rs []probe.Result) {
				mu.Lock()
				out[vp.Name] = rs
				mu.Unlock()
				pc.checkpoint(func(j *Journal) { j.recordResults(phase, "ping-rr-all", vp.Name, rs) })
			})
		}
		rep.eng.Run()
	})
	pc.syncClocks()
	pc.endPhase(phase, journaled)
	return out
}

// PingAll sends count plain pings per destination from every VP.
func (pc *ParallelCampaign) PingAll(dests []netip.Addr, count int, opts probe.Options) map[string][][]probe.Result {
	pc.init()
	phase, journaled := pc.beginPhase("ping-all")
	out := make(map[string][][]probe.Result, len(pc.vpNames))
	var skip map[string]bool
	if journaled {
		skip = make(map[string]bool)
		for _, name := range pc.vpNames {
			if gs, ok := pc.journal.archivedGroups(phase, name); ok {
				out[name] = gs
				skip[name] = true
				n := 0
				for _, g := range gs {
					n += consumedSeqs(g)
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
			vp.PingBatch(dests, count, opts, func(rs [][]probe.Result) {
				mu.Lock()
				out[vp.Name] = rs
				mu.Unlock()
				pc.checkpoint(func(j *Journal) { j.recordGroups(phase, "ping-all", vp.Name, rs) })
			})
		}
		rep.eng.Run()
	})
	pc.syncClocks()
	pc.endPhase(phase, journaled)
	return out
}

// PingRRUDPAll sends one ping-RRudp from every VP to its listed targets.
func (pc *ParallelCampaign) PingRRUDPAll(perVP map[string][]netip.Addr, opts probe.Options) map[string][]probe.Result {
	pc.init()
	phase, journaled := pc.beginPhase("ping-rr-udp-all")
	out := make(map[string][]probe.Result, len(perVP))
	skip := pc.archivedFlat(phase, journaled, out)
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
			vp.Batch(ds, probe.PingRRUDP, opts, func(rs []probe.Result) {
				mu.Lock()
				out[vp.Name] = rs
				mu.Unlock()
				pc.checkpoint(func(j *Journal) { j.recordResults(phase, "ping-rr-udp-all", vp.Name, rs) })
			})
		}
		rep.eng.Run()
	})
	pc.syncClocks()
	pc.endPhase(phase, journaled)
	return out
}

// shardVP returns the named VP's prober instance on rep — the assigned
// VantagePoint on its home shard, a lazily created ghost elsewhere (see
// replica.ghosts). Must be called from rep's dispatch goroutine.
func (pc *ParallelCampaign) shardVP(rep *replica, name string) *VantagePoint {
	if pc.vpShard[name] == rep.idx {
		for _, vp := range rep.vps {
			if vp.Name == name {
				return vp
			}
		}
	}
	if vp := rep.ghosts[name]; vp != nil {
		return vp
	}
	rv := rep.topo.VPByName(name)
	if rv == nil {
		return nil
	}
	vp := NewVantagePoint(rv.Name, rv.Host, rep.eng, uint16(0x4000+pc.vpIndex[name]))
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

// partitionByGroup assigns addr indices 0..n-1 to k bins such that all
// indices sharing a group value land in one bin, greedily balancing bin
// sizes over groups in first-appearance order. Deterministic in its
// inputs; each bin comes back sorted ascending. A nil group slice makes
// every index its own group.
func partitionByGroup(n int, group []int, k int) [][]int {
	var order []int
	members := make(map[int][]int)
	for i := 0; i < n; i++ {
		g := i
		if group != nil {
			g = group[i]
		}
		if _, ok := members[g]; !ok {
			order = append(order, g)
		}
		members[g] = append(members[g], i)
	}
	bins := make([][]int, k)
	load := make([]int, k)
	for _, g := range order {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		bins[best] = append(bins[best], members[g]...)
		load[best] += len(members[g])
	}
	for s := range bins {
		sort.Ints(bins[s])
	}
	return bins
}

// PingBatchVP sends count plain pings per destination from the single
// named VP, fanning contiguous destination ranges across the fleet's
// replicas: shard s probes destRange(len(dests), K, s) on its own clone
// through the VP's home prober or a ghost stand-in. Because every
// probe's send time and sequence numbers derive from its global
// destination index (probe.Batch.Indexed), the merged per-destination
// groups are invariant under K mod ReplyIPID — including per-packet
// fault draws, which are content-keyed on the seq. On a journaled
// campaign each completed range checkpoints under a range key and
// streams to the sink as the VP itself.
func (pc *ParallelCampaign) PingBatchVP(name string, dests []netip.Addr, count int, opts probe.Options) [][]probe.Result {
	pc.init()
	if count < 1 {
		count = 1
	}
	phase, journaled := pc.beginPhase("ping-batch-vp")
	k := len(pc.replicas)
	grouped := make([][]probe.Result, len(dests))
	skip := make(map[int]bool)
	if journaled {
		for s := 0; s < k; s++ {
			lo, hi := destRange(len(dests), k, s)
			if lo == hi {
				continue
			}
			if gs, ok := pc.journal.archivedGroups(phase, rangeKey(name, s)); ok {
				copy(grouped[lo:hi], gs)
				skip[s] = true
			}
		}
	}
	pc.eachShard(func(rep *replica) {
		lo, hi := destRange(len(dests), k, rep.idx)
		if lo == hi || skip[rep.idx] {
			return
		}
		vp := pc.shardVP(rep, name)
		if vp == nil {
			return
		}
		vp.PingBatchRange(dests, lo, hi, count, opts, func(gs [][]probe.Result) {
			copy(grouped[lo:hi], gs) // disjoint ranges: no two shards share an element
			pc.checkpoint(func(j *Journal) { j.recordGroupsAs(phase, "ping-batch-vp", rangeKey(name, rep.idx), name, gs) })
		})
		rep.eng.Run()
	})
	pc.syncClocks()
	pc.endPhase(phase, journaled)
	return grouped
}

// PingSeriesVP probes every address rounds times from the named VP in
// round-major interleaved order, partitioning addresses across replicas
// with partitionByGroup so that addresses sharing group[i] — alias
// candidates whose IP-ID counters must stay co-located — always sample
// the same replica's counters. Results merge back into global spec
// order (round*len(addrs) + addrIdx).
func (pc *ParallelCampaign) PingSeriesVP(name string, addrs []netip.Addr, group []int, rounds int, opts probe.Options) []probe.Result {
	pc.init()
	if rounds < 1 {
		rounds = 1
	}
	phase, journaled := pc.beginPhase("ping-series-vp")
	k := len(pc.replicas)
	sel := partitionByGroup(len(addrs), group, k)
	out := make([]probe.Result, rounds*len(addrs))
	scatter := func(idxs []int, rs []probe.Result) {
		for j, r := range rs {
			out[(j/len(idxs))*len(addrs)+idxs[j%len(idxs)]] = r
		}
	}
	skip := make(map[int]bool)
	if journaled {
		for s := 0; s < k; s++ {
			if len(sel[s]) == 0 {
				continue
			}
			if rs, ok := pc.journal.archivedResults(phase, rangeKey(name, s)); ok {
				scatter(sel[s], rs)
				skip[s] = true
			}
		}
	}
	pc.eachShard(func(rep *replica) {
		idxs := sel[rep.idx]
		if len(idxs) == 0 || skip[rep.idx] {
			return
		}
		vp := pc.shardVP(rep, name)
		if vp == nil {
			return
		}
		vp.PingSeriesSlice(addrs, idxs, rounds, opts, func(rs []probe.Result) {
			scatter(idxs, rs) // disjoint index sets: no two shards share an element
			pc.checkpoint(func(j *Journal) { j.recordResultsAs(phase, "ping-series-vp", rangeKey(name, rep.idx), name, rs) })
		})
		rep.eng.Run()
	})
	pc.syncClocks()
	pc.endPhase(phase, journaled)
	return out
}
