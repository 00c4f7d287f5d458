package topology

import (
	"runtime"
	"testing"

	"recordroute/internal/netsim"
)

// destHost returns t's host for d, one of its Dests: the k'th destination
// is the k'th node after the routers.
func destHost(t *Topology, d *Dest) *netsim.Host {
	k := int(t.destBase[d.ASIdx]) + int(addrU32(d.Addr)>>8&0xff)
	return t.Net.Host(netsim.NodeID(len(t.rtr) + k))
}

func snapshotTestConfig() Config {
	cfg := DefaultConfig(Epoch2016).Scale(0.15)
	cfg.Seed = 42
	return cfg
}

func TestSnapshotCloneStructure(t *testing.T) {
	src := MustBuild(snapshotTestConfig())
	clone := SnapshotOf(src).Clone()

	if clone.Net == src.Net {
		t.Fatal("clone shares the source network")
	}
	if clone.Net.NumNodes() != src.Net.NumNodes() {
		t.Fatalf("clone has %d nodes, source %d", clone.Net.NumNodes(), src.Net.NumNodes())
	}
	if len(clone.Dests) != len(src.Dests) {
		t.Fatalf("clone has %d dests, source %d", len(clone.Dests), len(src.Dests))
	}
	for i := range src.Routers {
		if len(clone.Routers[i]) != len(src.Routers[i]) {
			t.Fatalf("AS %d: %d routers, want %d", i, len(clone.Routers[i]), len(src.Routers[i]))
		}
		for j, r := range src.Routers[i] {
			cr := clone.Routers[i][j]
			if cr == r {
				t.Fatalf("AS %d router %d not remapped", i, j)
			}
			if cr.Name() != r.Name() {
				t.Fatalf("AS %d router %d named %q, want %q", i, j, cr.Name(), r.Name())
			}
			if cr.FIB() != r.FIB() {
				t.Fatalf("AS %d router %d does not share the frozen FIB", i, j)
			}
		}
	}
	for i, v := range src.VPs {
		cv := clone.VPs[i]
		if cv.Host == v.Host || cv.Host.Name() != v.Host.Name() || cv.Addr != v.Addr {
			t.Fatalf("VP %d (%s) misremapped", i, v.Name)
		}
		if cv.SourceRateLimited != v.SourceRateLimited {
			t.Fatalf("VP %s lost its rate-limited flag", v.Name)
		}
	}
	for i, d := range src.Dests {
		cd := clone.Dests[i]
		if destHost(clone, cd) == destHost(src, d) || cd.Addr != d.Addr || cd.GTRRDrop != d.GTRRDrop {
			t.Fatalf("dest %d (%v) misremapped", i, d.Addr)
		}
		if clone.DestByAddr(d.Addr) != cd {
			t.Fatalf("destByAddr(%v) not rebuilt", d.Addr)
		}
	}
}

// The ground-truth helpers must give identical answers on a clone: they
// traverse the shared route plane.
func TestSnapshotCloneGroundTruthEquivalent(t *testing.T) {
	src := MustBuild(snapshotTestConfig())
	clone := SnapshotOf(src).Clone()

	checked := 0
	for _, vp := range src.VPs {
		for _, d := range src.Dests {
			if checked >= 500 {
				break
			}
			want := src.ForwardStampPath(vp.Addr, d.Addr)
			got := clone.ForwardStampPath(vp.Addr, d.Addr)
			if len(want) != len(got) {
				t.Fatalf("%s→%v: clone path %v, want %v", vp.Name, d.Addr, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s→%v hop %d: clone %v, want %v", vp.Name, d.Addr, i, got[i], want[i])
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no paths checked")
	}
	for _, d := range src.Dests[:50] {
		if src.ASOf(d.Addr) != clone.ASOf(d.Addr) || src.ASNOf(d.Addr) != clone.ASNOf(d.Addr) {
			t.Fatalf("AS mapping differs for %v", d.Addr)
		}
	}
}

func TestSnapshotCloneWithFaults(t *testing.T) {
	cfg := snapshotTestConfig()
	cfg.Faults = &netsim.FaultConfig{LossProb: 0.05, LossFrac: 0.25,
		OutageFrac: 0.02, WithdrawFrac: 0.05}
	src := MustBuild(cfg)
	clone := SnapshotOf(src).Clone()
	if clone.Faults != src.Faults {
		t.Fatalf("clone fault summary %+v, want %+v", clone.Faults, src.Faults)
	}
}

// profileTopology builds a scale profile's default topology.
func profileTopology(t *testing.T, p ScaleProfile) *Topology {
	t.Helper()
	cfg, err := ProfileConfig(Epoch2016, p)
	if err != nil {
		t.Fatal(err)
	}
	return MustBuild(cfg)
}

// heapDelta runs f and reports what it left on the heap, in bytes and in
// objects, and how many objects it allocated; keep is what f returns,
// held live across the measurement.
func heapDelta[T any](f func() T) (keep T, bytes, objects, mallocs int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep = f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return keep, int64(after.HeapAlloc) - int64(before.HeapAlloc),
		int64(after.HeapObjects) - int64(before.HeapObjects), int64(after.Mallocs) - int64(before.Mallocs)
}

// A clone is an overlay and some handles: its allocation count depends
// on how many vantage points want a host handle, never on how many nodes
// the plane has.
func TestSnapshotCloneAllocBudget(t *testing.T) {
	for _, p := range []ScaleProfile{ScaleSmall, ScaleMedium} {
		src := profileTopology(t, p)
		snap := SnapshotOf(src)
		budget := float64(24 + 2*(len(src.VPs)+len(src.CloudVPs)))
		if allocs := testing.AllocsPerRun(10, func() { snap.Clone() }); allocs > budget {
			t.Errorf("%s (%d nodes): Clone allocates %v objects, budget %v", p, src.Net.NumNodes(), allocs, budget)
		}
	}
}

// A built plane is flat tables: it keeps well under one heap object per
// ten nodes (it kept seven per node as a pointer graph).
func TestPlaneObjectBudget(t *testing.T) {
	topo, _, objects, _ := heapDelta(func() *Topology { return profileTopology(t, ScaleMedium) })
	if nodes := int64(topo.Net.NumNodes()); objects*10 > nodes {
		t.Errorf("a %d-node plane holds %d heap objects, budget %d", nodes, objects, nodes/10)
	}
}

// The large profile is where the plane's size decides what fits: pin a
// built plane's heap, and what each replica adds to it.
func TestLargePlaneBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the large profile")
	}
	topo, bytes, objects, _ := heapDelta(func() *Topology { return profileTopology(t, ScaleLarge) })
	t.Logf("plane: %d nodes, %.1f MB in %d objects", topo.Net.NumNodes(), float64(bytes)/(1<<20), objects)
	if bytes > 60<<20 || objects > 80_000 {
		t.Errorf("large plane holds %.1f MB in %d objects, budget 60 MB in 80000", float64(bytes)/(1<<20), objects)
	}
	snap := SnapshotOf(topo)
	clone, bytes, _, mallocs := heapDelta(snap.Clone)
	t.Logf("clone: %.2f MB, %d allocations", float64(bytes)/(1<<20), mallocs)
	if budget := int64(24 + 2*(len(topo.VPs)+len(topo.CloudVPs))); bytes > 13<<20/10 || mallocs > budget {
		t.Errorf("a large clone keeps %.2f MB from %d allocations, budget 1.3 MB from %d", float64(bytes)/(1<<20), mallocs, budget)
	}
	if len(clone.Dests) != len(topo.Dests) {
		t.Fatal("clone lost destinations")
	}
}

// What building a large plane allocates in all, garbage included: the
// route kernel's scratch and the network's build tables, which Build
// reserves at their final size so that none is copied as it grows. The
// count pins that nothing is allocated per host or per router: names go
// straight into the name arena, and the routers' tables are laid out
// once, at Freeze.
func TestLargeBuildAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the large profile")
	}
	profileTopology(t, ScaleLarge) // warm: what a second build allocates
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	profileTopology(t, ScaleLarge)
	runtime.ReadMemStats(&after)
	total, allocs := float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), after.Mallocs-before.Mallocs
	t.Logf("large build: %.1f MB in %d allocations", total, allocs)
	if total > 70 {
		t.Errorf("a large build allocates %.1f MB, budget 70 MB", total)
	}
	if allocs > 40000 {
		t.Errorf("a large build makes %d allocations, budget 40,000", allocs)
	}
}
