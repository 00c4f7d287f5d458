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
