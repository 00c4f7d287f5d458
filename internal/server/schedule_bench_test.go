package server

import (
	"net/netip"
	"testing"

	"recordroute/internal/results"
)

// scheduleTick returns the scheduler's per-epoch overhead as a function
// of the epoch cursor — deriving the next epoch's job spec (seed, churn
// clock, journal path) and folding a completed epoch's reachable set
// into the time-series index — with the campaign itself factored out.
func scheduleTick(tb testing.TB) func(e int) {
	sc := &Schedule{ID: "sched-1", Tenant: "bench",
		Spec:  ScheduleSpec{Job: smokeSpec(), Epochs: 1 << 30},
		state: SchedActive, Index: &results.EpochIndex{}}
	reachable := make([]netip.Addr, 64)
	for i := range reachable {
		reachable[i] = netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
	}
	return func(e int) {
		spec := sc.epochSpec("/data", e)
		if spec.FaultEpoch != e {
			tb.Fatal("epoch spec derivation broken")
		}
		sc.Index.Add(e, reachable)
	}
}

// TestScheduleTickAllocs pins what one tick allocates: it runs between
// every pair of epochs of every schedule, and an alloc regression here
// taxes the whole cadence. Every measured tick is a schedule's usual one,
// a new epoch appended to the index (a tick that replaces a resumed
// epoch's record allocates less).
func TestScheduleTickAllocs(t *testing.T) {
	tick := scheduleTick(t)
	e := 0
	allocs := testing.AllocsPerRun(100, func() {
		tick(e)
		e++
	})
	if allocs > 10 {
		t.Errorf("a schedule tick allocates %v times, want at most 10", allocs)
	}
}

// BenchmarkScheduleTick times one tick (TestScheduleTickAllocs pins
// what it allocates).
func BenchmarkScheduleTick(b *testing.B) {
	tick := scheduleTick(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(i & 7) // bounded cursor: the index stays 8 epochs deep
	}
}
