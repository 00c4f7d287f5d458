package topology

import "testing"

// buildTestGraph constructs the classic textbook graph:
//
//	     T1a ──peer── T1b          (tier 1 clique)
//	     /  \          |
//	   M1    M2        M3          (mid-tier: customers of tier 1)
//	  /  \     \      /
//	E1    E2    E3──peer (E2-E3)   (edges: customers of mid-tier)
//
// Indices: T1a=0 T1b=1 M1=2 M2=3 M3=4 E1=5 E2=6 E3=7.
func buildTestGraph() *Graph {
	g := NewGraph(8)
	g.AddLink(0, 1, RelPeer)     // T1a — T1b
	g.AddLink(0, 2, RelCustomer) // M1 customer of T1a
	g.AddLink(0, 3, RelCustomer) // M2 customer of T1a
	g.AddLink(1, 4, RelCustomer) // M3 customer of T1b
	g.AddLink(2, 5, RelCustomer) // E1 customer of M1
	g.AddLink(2, 6, RelCustomer) // E2 customer of M1
	g.AddLink(3, 7, RelCustomer) // E3 customer of M2
	g.AddLink(6, 7, RelPeer)     // E2 — E3 peering
	return g
}

func pathEq(got []int, want ...int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestRoutesCustomerPreferredOverPeer(t *testing.T) {
	g := buildTestGraph()
	r := ComputeRoutes(g)
	// M1 → E2: direct customer route, one hop down.
	if got := r.Path(2, 6); !pathEq(got, 2, 6) {
		t.Errorf("M1→E2 path = %v", got)
	}
	// T1a → E3: customer chain through M2, never the peer T1b.
	if got := r.Path(0, 7); !pathEq(got, 0, 3, 7) {
		t.Errorf("T1a→E3 path = %v", got)
	}
}

func TestRoutesPeerShortcutUsed(t *testing.T) {
	g := buildTestGraph()
	r := ComputeRoutes(g)
	// E2 → E3: the peering link beats the long provider path up to T1a.
	if got := r.Path(6, 7); !pathEq(got, 6, 7) {
		t.Errorf("E2→E3 path = %v (peer shortcut not taken)", got)
	}
	// E3 → E2 symmetric.
	if got := r.Path(7, 6); !pathEq(got, 7, 6) {
		t.Errorf("E3→E2 path = %v", got)
	}
}

func TestRoutesProviderPathWhenNecessary(t *testing.T) {
	g := buildTestGraph()
	r := ComputeRoutes(g)
	// E1 → E3: up to M1, up to T1a, down through M2. Valley-free.
	if got := r.Path(5, 7); !pathEq(got, 5, 2, 0, 3, 7) {
		t.Errorf("E1→E3 path = %v", got)
	}
	// E1 → M3: must cross the tier-1 peering (T1a—T1b).
	if got := r.Path(5, 4); !pathEq(got, 5, 2, 0, 1, 4) {
		t.Errorf("E1→M3 path = %v", got)
	}
}

func TestRoutesValleyFreeEverywhere(t *testing.T) {
	g := buildTestGraph()
	r := ComputeRoutes(g)
	relOf := func(a, b int) Rel {
		for _, nb := range g.Neighbors(a) {
			if nb.To == b {
				return nb.Rel
			}
		}
		t.Fatalf("no link %d-%d on path", a, b)
		return 0
	}
	for s := 0; s < g.N(); s++ {
		for d := 0; d < g.N(); d++ {
			p := r.Path(s, d)
			if p == nil {
				t.Fatalf("no path %d→%d in connected graph", s, d)
			}
			// Valley-free: once the path goes down (to a customer) or
			// sideways (peer), it may never go up or sideways again.
			descended := false
			for i := 0; i+1 < len(p); i++ {
				switch relOf(p[i], p[i+1]) {
				case RelCustomer: // going down
					descended = true
				case RelPeer:
					if descended {
						t.Errorf("path %v: peer edge after descent", p)
					}
					descended = true
				case RelProvider: // going up
					if descended {
						t.Errorf("path %v: climbs after descent", p)
					}
				}
			}
		}
	}
}

func TestRoutesNoPathAcrossPartition(t *testing.T) {
	g := NewGraph(4)
	g.AddLink(0, 1, RelCustomer)
	g.AddLink(2, 3, RelCustomer)
	r := ComputeRoutes(g)
	if got := r.Path(0, 3); got != nil {
		t.Errorf("path across partition = %v", got)
	}
}

func TestRoutesPeerDoesNotTransit(t *testing.T) {
	// a —peer— b —peer— c: a must NOT reach c through b (no transit
	// over two peer edges).
	g := NewGraph(3)
	g.AddLink(0, 1, RelPeer)
	g.AddLink(1, 2, RelPeer)
	r := ComputeRoutes(g)
	if got := r.Path(0, 2); got != nil {
		t.Errorf("peer-peer transit path = %v, want none", got)
	}
	if got := r.Path(0, 1); !pathEq(got, 0, 1) {
		t.Errorf("direct peer path = %v", got)
	}
}

func TestRoutesCustomerBeatsShorterPeer(t *testing.T) {
	// dst is both a's customer (via m) and a's direct peer. Policy
	// prefers the longer customer route.
	// a(0) — m(1) customer; m — dst(2) customer; a — dst peer.
	g := NewGraph(3)
	g.AddLink(0, 1, RelCustomer)
	g.AddLink(1, 2, RelCustomer)
	g.AddLink(0, 2, RelPeer)
	r := ComputeRoutes(g)
	if got := r.Path(0, 2); !pathEq(got, 0, 1, 2) {
		t.Errorf("a→dst path = %v, want customer route through m", got)
	}
}

func TestRoutesDeterministicTieBreak(t *testing.T) {
	// Two equal-length customer routes toward dst: next hop must be the
	// lower-indexed AS, consistently across recomputation.
	g := NewGraph(4)
	g.AddLink(1, 3, RelCustomer) // dst(3) customer of 1
	g.AddLink(2, 3, RelCustomer) // dst customer of 2
	g.AddLink(1, 0, RelCustomer) // 0 customer of 1
	g.AddLink(2, 0, RelCustomer) // 0 customer of 2
	for i := 0; i < 5; i++ {
		r := ComputeRoutes(g)
		if got := r.NextHop(0, 3); got != 1 {
			t.Fatalf("run %d: next hop = %d, want 1 (lowest index)", i, got)
		}
	}
}

func TestGraphHasLink(t *testing.T) {
	g := NewGraph(3)
	g.AddLink(0, 1, RelPeer)
	if !g.HasLink(0, 1) || !g.HasLink(1, 0) {
		t.Error("HasLink missed the adjacency")
	}
	if g.HasLink(0, 2) {
		t.Error("HasLink invented an adjacency")
	}
}

func TestNextHopsClassAndDist(t *testing.T) {
	g := buildTestGraph()
	k := newRouteKernel(wholeAdj(g), g.N())
	nh := make([]int32, g.N())
	k.row(7, nh) // dst = E3
	class, dist := k.class, k.dist
	// E2 reaches E3 via peer: class peer, dist 1.
	if class[6] != classPeer || dist[6] != 1 || nh[6] != 7 {
		t.Errorf("E2: class=%d dist=%d nh=%d", class[6], dist[6], nh[6])
	}
	// M2 reaches via customer, dist 1.
	if class[3] != classCustomer || dist[3] != 1 {
		t.Errorf("M2: class=%d dist=%d", class[3], dist[3])
	}
	// E1 gets a provider route (via M1).
	if class[5] != classProvider {
		t.Errorf("E1: class=%d", class[5])
	}
	// dst itself.
	if dist[7] != 0 || nh[7] != 7 {
		t.Errorf("dst: dist=%d nh=%d", dist[7], nh[7])
	}
}

// wholeAdj is g's relAdj over every AS, leaves included: the graph the
// kernel would route without the core reduction.
func wholeAdj(g *Graph) *relAdj {
	rank := make([]int32, g.N())
	for a := range rank {
		rank[a] = int32(a)
	}
	return splitByRel(g, rank)
}

// TestComputeRoutesParallelMatchesSerial pins the parallel route build's
// determinism contract: every worker count produces the exact routes
// the serial build does, pair for pair, on both the textbook graph and
// random well-formed hierarchies.
func TestComputeRoutesParallelMatchesSerial(t *testing.T) {
	graphs := []*Graph{buildTestGraph()}
	for seed := int64(1); seed <= 4; seed++ {
		graphs = append(graphs, randomHierarchy(seed))
	}
	for gi, g := range graphs {
		want := ComputeRoutesParallel(g, 1)
		for _, workers := range []int{2, 3, 4, 8, 0} {
			got := ComputeRoutesParallel(g, workers)
			for d := range g.N() {
				for a := range g.N() {
					if hop := got.NextHop(a, d); hop != want.NextHop(a, d) {
						t.Fatalf("graph %d workers=%d: NextHop(%d, %d) = %d, want %d", gi, workers, a, d, hop, want.NextHop(a, d))
					}
				}
			}
		}
	}
}

// leafGraph is a small graph whose stubs exercise the leaf derivation
// (TestRoutesMatchReference also holds it to the whole-graph reference):
//
//	        T(0)
//	       /    \
//	    P1(1)   P2(2) ──peer── X(6)
//	    /  \      |  \         |
//	L1(3) L2(4) L3(5) S(7)──peer
//
// L1, L2 and L3 are leaves; S is a stub with a provider and a peer,
// which is not. X reaches P2 and its customers over the peering, and
// P1's side not at all, so X and the leaves under P1 are mutually
// unreachable.
func leafGraph() *Graph {
	g := NewGraph(8)
	g.AddLink(0, 1, RelCustomer)
	g.AddLink(0, 2, RelCustomer)
	g.AddLink(1, 3, RelCustomer)
	g.AddLink(1, 4, RelCustomer)
	g.AddLink(2, 5, RelCustomer)
	g.AddLink(2, 6, RelPeer)
	g.AddLink(2, 7, RelCustomer)
	g.AddLink(7, 6, RelPeer)
	return g
}

func TestRoutesLeaves(t *testing.T) {
	g := leafGraph()
	r := ComputeRoutes(g)
	for _, c := range []struct {
		name      string
		a, d, hop int
	}{
		{"leaf to its provider", 3, 1, 1},
		{"provider to its leaf", 1, 3, 3},
		{"leaf to a sibling leaf", 3, 4, 1},
		{"provider between its leaves", 1, 4, 4},
		{"leaf to a leaf across the core", 3, 5, 1},
		{"core toward a leaf across the core", 0, 5, 2},
		{"no route to the leaf's provider", 6, 3, -1},
		{"leaf with no route out", 3, 6, -1},
		{"peered stub takes its peer", 7, 6, 6},
		{"peer toward the peered stub", 6, 7, 7},
		{"peer toward a leaf behind its peer", 6, 5, 2},
	} {
		if got := r.NextHop(c.a, c.d); got != c.hop {
			t.Errorf("%s: NextHop(%d, %d) = %d, want %d", c.name, c.a, c.d, got, c.hop)
		}
	}
	if got := r.Path(3, 5); !pathEq(got, 3, 1, 0, 2, 5) {
		t.Errorf("leaf to leaf path = %v", got)
	}
	if got := r.Path(4, 3); !pathEq(got, 4, 1, 3) {
		t.Errorf("sibling leaf path = %v", got)
	}
	if got := r.Path(6, 4); got != nil {
		t.Errorf("unreachable leaf path = %v", got)
	}
}
