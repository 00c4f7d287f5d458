package netsim

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"
)

func TestEngineRunsInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3*time.Millisecond {
		t.Errorf("final clock = %v", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.Schedule(time.Millisecond, func() {
		times = append(times, e.Now())
		e.Schedule(time.Millisecond, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Errorf("times = %v", times)
	}
}

func TestEngineRunUntilLeavesFutureEvents(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(time.Millisecond, func() { ran++ })
	e.Schedule(5*time.Millisecond, func() { ran++ })
	e.RunUntil(2 * time.Millisecond)
	if ran != 1 {
		t.Errorf("ran %d events before t=2ms, want 1", ran)
	}
	if e.Now() != 2*time.Millisecond {
		t.Errorf("clock = %v, want 2ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 2 {
		t.Errorf("ran %d total, want 2", ran)
	}
}

func TestEngineNegativeDelayRunsNow(t *testing.T) {
	e := NewEngine()
	e.RunUntil(time.Second)
	var at time.Duration = -1
	e.Schedule(-5*time.Millisecond, func() { at = e.Now() })
	e.Run()
	if at != time.Second {
		t.Errorf("negative-delay event ran at %v, want %v", at, time.Second)
	}
}

func TestEngineAt(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.At(7*time.Millisecond, func() { at = e.Now() })
	e.Run()
	if at != 7*time.Millisecond {
		t.Errorf("ran at %v", at)
	}
}

func TestTokenBucketConformingRate(t *testing.T) {
	tb := NewTokenBucket(10, 1) // 10 pps, burst 1
	// One packet every 100ms conforms indefinitely.
	for i := 0; i < 50; i++ {
		now := time.Duration(i) * 100 * time.Millisecond
		if !tb.Allow(now) {
			t.Fatalf("conforming packet %d dropped", i)
		}
	}
}

func TestTokenBucketPolicesBurst(t *testing.T) {
	tb := NewTokenBucket(10, 10)
	allowed := 0
	// 100 packets arriving in the same instant: only the burst passes.
	for i := 0; i < 100; i++ {
		if tb.Allow(0) {
			allowed++
		}
	}
	if allowed != 10 {
		t.Errorf("allowed %d of instantaneous burst, want 10", allowed)
	}
	// After one second, 10 more tokens have accumulated.
	allowed = 0
	for i := 0; i < 100; i++ {
		if tb.Allow(time.Second) {
			allowed++
		}
	}
	if allowed != 10 {
		t.Errorf("allowed %d after refill, want 10", allowed)
	}
}

func TestTokenBucketLongTermRate(t *testing.T) {
	tb := NewTokenBucket(10, 10)
	allowed := 0
	// 100 pps offered for 10 simulated seconds: ~10% should pass.
	for i := 0; i < 1000; i++ {
		if tb.Allow(time.Duration(i) * 10 * time.Millisecond) {
			allowed++
		}
	}
	if allowed < 95 || allowed > 115 {
		t.Errorf("allowed %d of 1000 at 10x overload, want ~100", allowed)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// recvFunc is a Node that hands what it receives to a function.
type recvFunc func(pkt []byte)

func (recvFunc) Name() string                   { return "recv" }
func (f recvFunc) Receive(pkt []byte, _ *Iface) { f(pkt) }
func (recvFunc) addIface(*Iface)                {}

// TestEngineOrderIsAtThenSeq runs a random self-scheduling program —
// same-instant ties, short deliveries, the fixed two-second timers that
// ride the FIFO lane, occasional far-future events that block it —
// through the engine and through a naive scan-for-the-minimum
// scheduler, and requires the same execution order: (at, seq) with seq
// assigned at schedule time, whichever queue held each event.
func TestEngineOrderIsAtThenSeq(t *testing.T) {
	const total = 30000
	// children returns the delays event id schedules when it runs.
	children := func(id int) []time.Duration {
		x := uint64(id)*0x9e3779b97f4a7c15 + 1
		var out []time.Duration
		for k := 0; k < 3; k++ {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			r := x * 0x2545f4914f6cdd1d >> 33
			switch r % 8 {
			case 0:
				out = append(out, 0)
			case 1, 2:
				out = append(out, 2*time.Second)
			case 3:
				// Far events block the lane (nothing else is due later), so
				// they come only in the last third: the lane must first run
				// long enough undisturbed to compact itself.
				if r%64 == 3 && id > total*2/3 {
					out = append(out, time.Hour)
				}
			case 4, 5:
				out = append(out, time.Duration(r%20_000_000))
			case 6:
				out = append(out, time.Millisecond)
			}
		}
		return out
	}

	type pending struct {
		at  time.Duration
		seq int
		id  int
	}
	var want []int
	{
		queue := []pending{{id: 0}}
		seq, nextID := 0, 1
		for len(queue) > 0 {
			m := 0
			for i, p := range queue {
				if p.at < queue[m].at || (p.at == queue[m].at && p.seq < queue[m].seq) {
					m = i
				}
			}
			p := queue[m]
			queue = append(queue[:m], queue[m+1:]...)
			want = append(want, p.id)
			for _, d := range children(p.id) {
				if nextID < total {
					seq++
					queue = append(queue, pending{at: p.at + d, seq: seq, id: nextID})
					nextID++
				}
			}
		}
	}

	// The engine's three event kinds share the one (at, seq) order: event
	// id is scheduled as a closure, a call or a packet delivery by id%3,
	// so same-instant ties mix all three.
	nw := New()
	e := nw.engine
	var got []int
	nextID := 1
	var run func(id uint64)
	recv := recvFunc(func(pkt []byte) { run(binary.BigEndian.Uint64(pkt)) })
	nw.register(recv)
	sink, _ := nw.Connect(recv, recv, netip.Addr{}, netip.Addr{}, 0)
	run = func(id uint64) {
		got = append(got, int(id))
		for _, d := range children(int(id)) {
			if nextID >= total {
				break
			}
			child := uint64(nextID)
			nextID++
			switch child % 3 {
			case 0:
				e.Schedule(d, func() { run(child) })
			case 1:
				e.ScheduleCall(d, run, child)
			case 2:
				e.scheduleDelivery(d, binary.BigEndian.AppendUint64(nw.getBuf(), child), sink.id)
			}
		}
	}
	e.Schedule(0, func() { run(0) })
	// Drive it through RunUntil boundaries as campaigns do, then dry.
	for i := 1; i <= 50; i++ {
		e.RunUntil(time.Duration(i) * 400 * time.Millisecond)
	}
	e.Run()
	if len(got) != len(want) || len(got) < total/2 {
		t.Fatalf("executed %d events, oracle %d (program too small?)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: engine ran id %d, (at, seq) order runs id %d", i, got[i], want[i])
		}
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Run", e.Pending())
	}
}

// The campaign-shaped order check. A campaign paces every source on one
// grid from one start, so the engine sees many events per instant and
// coalesces them into runs; these programs aim at the ways runs can go
// wrong: events joining the instant that is draining, more pending
// instants than the open-run table has slots (so a run is evicted and
// its instant starts a second one), and RunUntil cuts at busy instants
// with events injected between cuts.

// Roles of the events in a campaign-shaped program.
const (
	roleSource  = iota // a prober launch: paces itself on the grid
	roleHop            // a packet hop: zero-delay or short children
	roleTimeout        // a fixed two-second timer: a leaf
	roleSpray          // queues leaves at more instants than the table holds, twice
	roleLeaf
)

const (
	campaignGrid  = 5 * time.Millisecond
	sprayInstants = 1100 // > 1 << openRunBits
)

// campaignProgram is one execution of a campaign-shaped program: add
// numbers events in scheduling order and hands them to sched, fire is
// what an event does when it runs. Both schedulers run their own copy,
// so each numbers children in its own execution order.
type campaignProgram struct {
	seed          uint64
	sources       int
	ticks         int32
	budget        int
	role          []uint8
	left          []int32 // a source's remaining launches
	order         []int   // event ids in execution order
	maxInstants   int     // most distinct instants pending after a spray (oracle only)
	sched         func(d time.Duration, id int)
	pendingDigest func() int
}

func (p *campaignProgram) add(d time.Duration, role uint8, left int32) {
	if len(p.role) >= p.budget {
		return
	}
	id := len(p.role)
	p.role = append(p.role, role)
	p.left = append(p.left, left)
	p.sched(d, id)
}

func (p *campaignProgram) fire(id int) {
	p.order = append(p.order, id)
	x := uint64(id)*0x9e3779b97f4a7c15 ^ p.seed
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	switch p.role[id] {
	case roleSource:
		if p.left[id] > 0 {
			p.add(campaignGrid, roleSource, p.left[id]-1)
		}
		p.add(0, roleHop, 0) // into the run that is draining
		p.add(2*time.Second, roleTimeout, 0)
		if x%128 == 0 {
			p.add(0, roleSpray, 0)
		}
	case roleHop:
		switch x % 8 {
		case 0, 1:
			p.add(0, roleHop, 0)
		case 2, 3, 4:
			p.add(time.Duration(x>>8%3000)*time.Microsecond, roleHop, 0)
		case 5:
			p.add(campaignGrid, roleLeaf, 0)
		}
	case roleSpray:
		// The same instants twice: by the second pass most of the first
		// pass's runs have been evicted, so their instants start second runs.
		off := time.Duration(x % 1000)
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < sprayInstants; k++ {
				p.add(off+time.Duration(k)*3*time.Microsecond, roleLeaf, 0)
			}
		}
		if p.pendingDigest != nil {
			p.maxInstants = max(p.maxInstants, p.pendingDigest())
		}
	}
}

// drive runs the program: every source launches at zero, then the
// clock is cut with RunUntil — mostly at grid instants, where a whole
// run executes, every third time between them — and after each cut one
// event is injected into the instant just reached and one onto the next
// grid instant, whose run is open.
func (p *campaignProgram) drive(runUntil func(time.Duration), run func(), cuts int) {
	for i := 0; i < p.sources; i++ {
		p.add(0, roleSource, p.ticks)
	}
	for k := 1; k <= cuts; k++ {
		t := time.Duration(k) * campaignGrid
		if k%3 == 0 {
			t += campaignGrid / 2
		}
		runUntil(t)
		p.add(0, roleHop, 0)
		p.add(campaignGrid-t%campaignGrid, roleHop, 0)
	}
	run()
}

// naiveRun runs p on a scan-for-the-minimum scheduler in (at, seq)
// order, seq assigned at schedule time: the order the engine must
// reproduce. It returns the number of distinct instants executed.
func naiveRun(p *campaignProgram, cuts int) int {
	type pending struct {
		at  time.Duration
		seq int
		id  int
	}
	var q []pending
	var now time.Duration
	seq := 0
	p.sched = func(d time.Duration, id int) {
		seq++
		q = append(q, pending{at: now + d, seq: seq, id: id})
	}
	p.pendingDigest = func() int {
		at := make(map[time.Duration]bool)
		for _, e := range q {
			at[e.at] = true
		}
		return len(at)
	}
	instants := make(map[time.Duration]bool)
	runUntil := func(t time.Duration) {
		for len(q) > 0 {
			m := 0
			for i, e := range q {
				if e.at < q[m].at || (e.at == q[m].at && e.seq < q[m].seq) {
					m = i
				}
			}
			e := q[m]
			if e.at > t {
				break
			}
			q = append(q[:m], q[m+1:]...)
			now = e.at
			instants[now] = true
			p.fire(e.id)
		}
		now = max(now, t)
	}
	p.drive(runUntil, func() { runUntil(1<<63 - 1) }, cuts)
	return len(instants)
}

// engineRun runs p on the engine, event id scheduled as a closure, a
// call or a packet delivery by id%3, and returns the engine.
func engineRun(p *campaignProgram, cuts int) *Engine {
	nw := New()
	e := nw.engine
	recv := recvFunc(func(pkt []byte) { p.fire(int(binary.BigEndian.Uint64(pkt))) })
	nw.register(recv)
	sink, _ := nw.Connect(recv, recv, netip.Addr{}, netip.Addr{}, 0)
	fire := func(id uint64) { p.fire(int(id)) }
	p.sched = func(d time.Duration, id int) {
		switch id % 3 {
		case 0:
			e.Schedule(d, func() { p.fire(id) })
		case 1:
			e.ScheduleCall(d, fire, uint64(id))
		case 2:
			e.scheduleDelivery(d, binary.BigEndian.AppendUint64(nw.getBuf(), uint64(id)), sink.id)
		}
	}
	p.drive(e.RunUntil, e.Run, cuts)
	return e
}

// checkCampaignOrder runs one campaign-shaped program on the engine and
// on the oracle and requires the same execution order.
func checkCampaignOrder(t *testing.T, seed uint64, sources, ticks, cuts uint8) (want *campaignProgram, instants int, e *Engine) {
	mk := func() *campaignProgram {
		return &campaignProgram{seed: seed, sources: int(sources%64) + 1, ticks: int32(ticks % 32), budget: 30000}
	}
	want, got := mk(), mk()
	instants = naiveRun(want, int(cuts%40))
	e = engineRun(got, int(cuts%40))
	for i := range min(len(got.order), len(want.order)) {
		if got.order[i] != want.order[i] {
			t.Fatalf("event %d: engine ran id %d, (at, seq) order runs id %d", i, got.order[i], want.order[i])
		}
	}
	if len(got.order) != len(want.order) {
		t.Fatalf("engine ran %d events, (at, seq) order runs %d", len(got.order), len(want.order))
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", e.Pending())
	}
	return want, instants, e
}

// TestEngineOrderCampaignShape pins that the canonical campaign-shaped
// program reaches what FuzzEngineOrder is for: more pending instants
// than the open-run table has slots, and instants whose events were
// split over more than one run.
func TestEngineOrderCampaignShape(t *testing.T) {
	p, instants, e := checkCampaignOrder(t, 1, 47, 20, 30)
	if p.maxInstants <= 1<<openRunBits {
		t.Errorf("at most %d distinct instants pending, want > %d", p.maxInstants, 1<<openRunBits)
	}
	if runs := int(e.seq); runs <= instants {
		t.Errorf("%d runs over %d instants: no instant was split over two runs", runs, instants)
	}
}

// FuzzEngineOrder holds the engine to the (at, seq) oracle on
// campaign-shaped programs: a seed, the number of sources sharing the
// grid, the launches each makes, and the number of RunUntil cuts.
func FuzzEngineOrder(f *testing.F) {
	f.Add(uint64(1), uint8(47), uint8(20), uint8(30))
	f.Add(uint64(7), uint8(3), uint8(31), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, sources, ticks, cuts uint8) {
		checkCampaignOrder(t, seed, sources, ticks, cuts)
	})
}
