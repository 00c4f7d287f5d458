// Package netsim is a deterministic, packet-level discrete-event network
// simulator. Nodes (routers and hosts) exchange real serialized IPv4
// datagrams over point-to-point links with configurable delays; routers
// perform longest-prefix-match forwarding, decrement TTL, generate ICMP
// errors with quoted headers, process IP options on a simulated slow path
// behind a token-bucket rate limiter, and stamp Record Route options.
//
// The simulator runs on a virtual clock: time advances only when the
// event queue is drained, so experiments that take minutes of simulated
// wall-clock time (e.g. probing at a fixed packets-per-second rate)
// complete in milliseconds and are exactly reproducible.
package netsim

import (
	"slices"
	"time"
)

// event is the payload of a scheduled occurrence, told apart in this
// order: a packet delivery (dst != 0: the receiving interface's id plus
// one), a call with an argument (call != nil), a callback (fn). The
// fields a kind does not use hold what the slot's earlier events left
// there (see enqueue). Packet deliveries are a dedicated event kind so the
// per-packet hot path schedules no closure and the engine can recycle
// the buffer once the receiver returns; calls are one so that a caller
// with many timers of one shape — a prober's per-probe timeout — keeps a
// single func value and packs what differs into arg instead of
// allocating a closure per timer. Payloads live in the engine's slab
// (see Engine), not in the queues.
type event struct {
	fn   func()
	call func(uint64)
	arg  uint64
	pkt  []byte
	dst  IfaceID
	next int32 // the next event of its run: that slot plus one, 0 ending the run
}

// heapEntry names a run — the events due at one instant, chained in
// scheduling order through event.next — by its first event's (at, seq)
// key and the slab slot of its next event. Splitting key from payload
// matters twice over on shard fleets: sifts move 24-byte pointer-free
// entries instead of 56-byte events, and because heapEntry contains no
// pointers the GC never scans the queues at all — with K replica engines
// alive, K queues' worth of scan work used to multiply into every GC
// cycle.
type heapEntry struct {
	at  time.Duration
	seq uint64 // FIFO tie-break between runs of one instant: determinism
	idx int32  // payload slot in Engine.slab
}

// openRunBits sizes the open-run table: 1,024 slots, 16 KB an engine.
const openRunBits = 10

// openRunSlot hashes an instant to its open-run table slot.
func openRunSlot(at time.Duration) uint64 {
	return uint64(at) * 0x9e3779b97f4a7c15 >> (64 - openRunBits)
}

// Engine is the discrete-event scheduler. It is not safe for concurrent
// use; the whole simulation is single-threaded and deterministic.
//
// Events execute in exactly (at, seq) order, seq being assigned at
// schedule time: same-instant events run in the order they were
// scheduled. Every prober paces on one grid from one start, so pending
// events crowd onto few instants, and the queues order runs of them,
// not events: an event joins the open run for its instant, found
// through a direct-mapped table, or starts a run with the next seq. A
// collision only closes the older run early, so every event of a run
// precedes every event of a later run for its instant (DESIGN.md §12).
//
// Event payloads are arena-backed: they live in a per-engine slab whose
// slots are recycled through a free list, so scheduling allocates no
// per-event objects and a fleet of K engines keeps K slabs — a handful
// of large, mostly-stable heap objects — instead of K growing
// populations of small ones for the GC to trace.
type Engine struct {
	pq []heapEntry // d-ary min-heap of runs ordered by (at, seq); pointer-free
	// lane is a FIFO of runs that were each due no earlier than the one
	// started before it, so it is sorted by construction and costs
	// nothing to keep sorted. Every probe parks a timeout a fixed two
	// seconds ahead of a clock that only moves forward — exactly that
	// shape — and those timers, which almost never fire before their
	// probe resolves, would otherwise fill the heap and deepen every
	// delivery's sift. step merges the two queues by comparing their
	// heads.
	lane     []heapEntry
	laneHead int     // lane[:laneHead] has been consumed
	slab     []event // event payload arena, indexed by heapEntry.idx
	free     []int32 // recycled slab slots
	now      time.Duration
	seq      uint64
	nRun     uint64
	pending  int
	net      *Network // receives packet deliveries; set by the network that owns the engine
	// open holds, at openRunSlot(at), the instant of a run still taking
	// events and its last event's slot plus one (0: no open run). It is
	// the last field so the collector's scan of an engine ends before it.
	open [1 << openRunBits]struct {
		at   time.Duration
		tail int32
	}
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// enqueue queues an event after delay d (negative means now) and returns
// its payload slot for the caller to fill. The event joins the open run
// for its instant, or starts a new one — queued in the lane when it is
// due no earlier than the lane's tail, in the heap otherwise. A recycled
// slot keeps what its last event left in it: the hot schedulers store
// only the fields their kind reads, because copying (and later clearing)
// a four-pointer event is a bulk write barrier per packet hop whenever
// the collector is marking.
func (e *Engine) enqueue(d time.Duration) *event {
	if d < 0 {
		d = 0
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slab = append(grown(e.slab), event{})
		idx = int32(len(e.slab) - 1)
	}
	e.pending++
	at := e.now + d
	r := &e.open[openRunSlot(at)]
	if r.tail != 0 && r.at == at {
		e.slab[r.tail-1].next = idx + 1
	} else {
		r.at = at
		e.seq++
		ent := heapEntry{at: at, seq: e.seq, idx: idx}
		if n := len(e.lane); n == e.laneHead || at >= e.lane[n-1].at {
			e.lane = append(grown(e.lane), ent)
		} else {
			e.push(ent)
		}
	}
	r.tail = idx + 1
	return &e.slab[idx]
}

// grown doubles a full arena: append grows a large slice by a quarter,
// and an engine that starts empty with every job would allocate five
// times its final arenas on the way up.
func grown[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, len(s)+64)
}

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero. Events scheduled for the same instant run in
// scheduling order. Closures are the cold kind: the whole-event store
// is what clears a recycled slot's stale call and dst for step.
func (e *Engine) Schedule(d time.Duration, fn func()) {
	*e.enqueue(d) = event{fn: fn}
}

// ScheduleCall runs fn(arg) after delay d of virtual time, ordered
// exactly like Schedule: the two share the (at, seq) sequence, so a
// caller that replaces Schedule(d, func() { f(x) }) by ScheduleCall(d,
// f, x) changes nothing about when anything runs.
func (e *Engine) ScheduleCall(d time.Duration, fn func(uint64), arg uint64) {
	ev := e.enqueue(d)
	ev.call, ev.arg, ev.dst = fn, arg, 0
}

// scheduleDelivery enqueues a packet delivery to dst after delay d,
// ordered exactly like Schedule. The engine owns pkt until delivery and
// returns it to the owning network's buffer pool afterwards.
func (e *Engine) scheduleDelivery(d time.Duration, pkt []byte, dst IfaceID) {
	ev := e.enqueue(d)
	ev.pkt, ev.dst = pkt, dst+1
}

// At runs fn at absolute virtual time t (or now, if t is in the past).
func (e *Engine) At(t time.Duration, fn func()) {
	e.Schedule(t-e.now, fn)
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.pending > 0 {
		e.step()
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t. Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t time.Duration) {
	for e.pending > 0 {
		if ent, _ := e.head(); ent.at > t {
			break
		}
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.pending }

// head returns the next queued run's entry and whether the lane holds it.
func (e *Engine) head() (*heapEntry, bool) {
	if e.laneHead < len(e.lane) && (len(e.pq) == 0 || e.lane[e.laneHead].before(e.pq[0])) {
		return &e.lane[e.laneHead], true
	}
	return &e.pq[0], false
}

// laneCompact is the consumed-prefix length beyond which the lane slides
// its live entries back to the front (once they are the smaller half),
// so a lane that never drains stays proportional to what is queued.
const laneCompact = 1024

// step runs the next event, its fields read out and its slot freed
// before the dispatch, which usually schedules into that very slot. Only
// the event that drains its run removes the run's entry — a sift, or a
// lane step — and closes the run in the open-run table if the table
// still names it, before the event may schedule into its instant again.
// Of the payload, a closure alone is dropped: a stale pkt points into the
// network's buffer pool and a stale call at a prober's bound method,
// which outlive it.
func (e *Engine) step() {
	ent, fromLane := e.head()
	idx := ent.idx
	e.now = ent.at // never earlier than now: nothing is queued in the past
	e.nRun++
	e.pending--
	ev := &e.slab[idx]
	e.free = append(e.free, idx)
	if ev.next != 0 {
		ent.idx, ev.next = ev.next-1, 0
	} else {
		if r := &e.open[openRunSlot(e.now)]; r.tail == idx+1 {
			r.tail = 0
		}
		if !fromLane {
			e.pop()
		} else {
			e.laneHead++
			switch live := len(e.lane) - e.laneHead; {
			case live == 0:
				e.lane, e.laneHead = e.lane[:0], 0
			case e.laneHead >= laneCompact && live <= e.laneHead:
				e.lane = e.lane[:copy(e.lane, e.lane[e.laneHead:])]
				e.laneHead = 0
			}
		}
	}
	switch {
	case ev.dst != 0:
		e.net.deliver(ev.pkt, ev.dst-1)
	case ev.call != nil:
		ev.call(ev.arg)
	default:
		fn := ev.fn
		ev.fn = nil
		fn()
	}
}

// The heap is hand-rolled rather than container/heap: the interface
// indirection there boxes one entry per Push/Pop, which dominates
// allocation in packet-heavy runs. It is 4-ary rather than binary: half
// the depth, and a node's four children share a cache line and a half.
// Entries carry only (at, seq, slab index), so comparisons never chase a
// pointer. Both sifts carry the moving entry in a local and shift
// entries into the hole it leaves, one store per level instead of a
// swap's two. The heap holds instants, not events — about seventy on a
// campaign, two on a Doubletree run — so it is shallow and sifts only
// when a run drains.

// before is the (at, seq) ordering.
func (a heapEntry) before(b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (e *Engine) push(ent heapEntry) {
	e.pq = append(e.pq, ent)
	pq := e.pq
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 4
		p := pq[parent]
		if !ent.before(p) {
			break
		}
		pq[i] = p
		i = parent
	}
	pq[i] = ent
}

// pop removes the heap's top entry.
func (e *Engine) pop() {
	pq := e.pq
	n := len(pq) - 1
	moving := pq[n]
	e.pq = pq[:n]
	i := 0
	for first := 1; first < n; first = 4*i + 1 {
		least := first
		for c := first + 1; c < min(first+4, n); c++ {
			if pq[c].before(pq[least]) {
				least = c
			}
		}
		if !pq[least].before(moving) {
			break
		}
		pq[i] = pq[least]
		i = least
	}
	pq[i] = moving
}
