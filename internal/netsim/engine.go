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
	"math/bits"
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
}

// heapEntry is one queued event: the (at, seq) ordering key plus the
// slab index of the event payload. Splitting key from payload matters
// twice over on shard fleets: sifts move 24-byte pointer-free entries
// instead of 56-byte events, and because heapEntry contains no pointers
// the GC never scans the queues at all — with K replica engines alive,
// K queues' worth of scan work used to multiply into every GC cycle.
type heapEntry struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for equal timestamps: determinism
	idx int32  // payload slot in Engine.slab
}

// Engine is the discrete-event scheduler. It is not safe for concurrent
// use; the whole simulation is single-threaded and deterministic.
//
// Events execute in exactly (at, seq) order, seq being assigned at
// schedule time: same-instant events run in the order they were
// scheduled, whichever of the two queues below holds them.
//
// Event payloads are arena-backed: they live in a per-engine slab whose
// slots are recycled through a free list, so scheduling allocates no
// per-event objects and a fleet of K engines keeps K slabs — a handful
// of large, mostly-stable heap objects — instead of K growing
// populations of small ones for the GC to trace.
type Engine struct {
	pq []heapEntry // d-ary min-heap ordered by (at, seq); pointer-free
	// lane is a FIFO of entries that were each due no earlier than the
	// one scheduled before it, so it is sorted by construction and costs
	// nothing to keep sorted. Every probe parks a timeout a fixed two
	// seconds ahead of a clock that only moves forward — exactly that
	// shape — and those timers, which almost never fire before their
	// probe resolves, would otherwise make up five sixths of the heap
	// and deepen every delivery's sift. step merges the two queues by
	// comparing their heads.
	lane     []heapEntry
	laneHead int     // lane[:laneHead] has been consumed
	slab     []event // event payload arena, indexed by heapEntry.idx
	free     []int32 // recycled slab slots
	now      time.Duration
	seq      uint64
	nRun     uint64
	net      *Network // receives packet deliveries; set by the network that owns the engine
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// enqueue queues an event after delay d (negative means now) — into the
// lane when it is due no earlier than the lane's tail, into the heap
// otherwise — and returns its payload slot for the caller to fill. A
// recycled slot keeps what its last event left in it: the hot schedulers
// store only the fields their kind reads, because copying (and later
// clearing) a four-pointer event is a bulk write barrier per packet hop
// whenever the collector is marking.
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
	e.seq++
	ent := heapEntry{at: e.now + d, seq: e.seq, idx: idx}
	if n := len(e.lane); n == e.laneHead || ent.at >= e.lane[n-1].at {
		e.lane = append(grown(e.lane), ent)
	} else {
		e.push(ent)
	}
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
	for e.Pending() > 0 {
		e.step()
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t. Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t time.Duration) {
	for e.Pending() > 0 && e.head().at <= t {
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for d more of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) + len(e.lane) - e.laneHead }

// laneFirst reports whether the next event in (at, seq) order is the
// lane's head rather than the heap's top; at least one must exist.
func (e *Engine) laneFirst() bool {
	return e.laneHead < len(e.lane) && (len(e.pq) == 0 || e.lane[e.laneHead].before(e.pq[0]))
}

// head returns the next event's entry without removing it.
func (e *Engine) head() heapEntry {
	if e.laneFirst() {
		return e.lane[e.laneHead]
	}
	return e.pq[0]
}

// laneCompact is the consumed-prefix length beyond which the lane slides
// its live entries back to the front (once they are the smaller half),
// so a lane that never drains stays proportional to what is queued.
const laneCompact = 1024

// next removes and returns the next event's entry.
func (e *Engine) next() heapEntry {
	if !e.laneFirst() {
		return e.pop()
	}
	ent := e.lane[e.laneHead]
	e.laneHead++
	switch live := len(e.lane) - e.laneHead; {
	case live == 0:
		e.lane, e.laneHead = e.lane[:0], 0
	case e.laneHead >= laneCompact && live <= e.laneHead:
		e.lane = e.lane[:copy(e.lane, e.lane[e.laneHead:])]
		e.laneHead = 0
	}
	return ent
}

// step runs the next event, its fields read out and its slot freed
// before the dispatch, which usually schedules into that very slot. Only
// a closure is dropped: a stale pkt points into the network's buffer
// pool and a stale call at a prober's bound method, which outlive it.
func (e *Engine) step() {
	top := e.next()
	if top.at > e.now {
		e.now = top.at
	}
	e.nRun++
	ev := &e.slab[top.idx]
	e.free = append(e.free, top.idx)
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
// swap's two, and compare local copies rather than re-indexing the
// slice: the sift's branches are data-dependent and mispredict, so what
// sits between them has to be short.

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

func (e *Engine) pop() heapEntry {
	pq := e.pq
	top := pq[0]
	n := len(pq) - 1
	moving := pq[n]
	pq = pq[:n]
	e.pq = pq
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		var at int
		if first+4 <= n {
			// Full brood: a two-round tournament on borrow bits, no
			// branches for the predictor to lose.
			c := pq[first : first+4 : first+4]
			l := int(c[1].borrow(c[0]))     // 1 if c1 < c0
			r := 2 + int(c[3].borrow(c[2])) // 3 if c3 < c2
			at = l + (r-l)*int(c[r].borrow(c[l]))
			at += first
		} else if first < n {
			at = first
			for c := first + 1; c < n; c++ {
				if pq[c].before(pq[at]) {
					at = c
				}
			}
		} else {
			break
		}
		least := pq[at]
		if !least.before(moving) {
			break
		}
		pq[i] = least
		i = at
	}
	pq[i] = moving
	return top
}

// borrow returns 1 when a orders before b and 0 otherwise, computed as
// the borrow out of the 128-bit subtraction (a.at:a.seq) - (b.at:b.seq)
// — times are never negative — so callers can select without branching.
func (a heapEntry) borrow(b heapEntry) uint64 {
	_, br := bits.Sub64(a.seq, b.seq, 0)
	_, br = bits.Sub64(uint64(a.at), uint64(b.at), br)
	return br
}
