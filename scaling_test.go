package recordroute

// Shard scaling-efficiency smoke test: the one in-tree scaling gate,
// which developers hit with plain `go test` on multi-core machines, so a
// change that wrecks parallel scaling fails before it ever reaches the
// benchmark harness (rrbench's measure.shard_speedup is the number).

import (
	"io"
	"runtime"
	"testing"
	"time"
)

// figure1Duration times one Figure 1 reachability run at k shards.
func figure1Duration(t *testing.T, k int) time.Duration {
	t.Helper()
	in, err := New(WithScale(benchScale), WithProbeRate(200), WithShards(k))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := in.Run("fig1", io.Discard, Params{}); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestShardScalingEfficiency asserts that four shards on four-plus real
// cores beat one shard by at least 2x on the Figure 1 workload — half
// the ideal 4x, leaving headroom for runner noise and the serial phases
// (origin pings, alias collection) while still catching a return of the
// historical negative scaling. Skipped wherever the speedup is not
// physically measurable: short mode, under the race detector (its
// serialization overwhelms the parallelism being measured), and hosts
// without four usable CPUs.
func TestShardScalingEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test in -short mode")
	}
	if raceEnabled {
		t.Skip("timing test under -race")
	}
	if runtime.NumCPU() < 4 || runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("host undersized for a scaling measurement: numcpu=%d gomaxprocs=%d",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	// Best of two per shard count: the first run also warms the build
	// caches, and one GC pause on either side can swing a single sample.
	best := func(k int) time.Duration {
		d := figure1Duration(t, k)
		if d2 := figure1Duration(t, k); d2 < d {
			d = d2
		}
		return d
	}
	seq := best(1)
	par := best(4)
	speedup := float64(seq) / float64(par)
	t.Logf("shards=1 %v, shards=4 %v: %.2fx speedup", seq, par, speedup)
	if speedup < 2.0 {
		t.Errorf("shards=4 speedup %.2fx below the 2x floor (shards=1 %v, shards=4 %v)", speedup, seq, par)
	}
}
