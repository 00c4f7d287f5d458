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
	k := newRouteKernel(splitByRel(g), g.N())
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

// TestComputeRoutesParallelMatchesSerial pins the parallel route build's
// determinism contract: every worker count produces the exact matrix the
// serial build does, row for row, on both the textbook graph and random
// well-formed hierarchies.
func TestComputeRoutesParallelMatchesSerial(t *testing.T) {
	graphs := []*Graph{buildTestGraph()}
	for seed := int64(1); seed <= 4; seed++ {
		graphs = append(graphs, randomHierarchy(seed))
	}
	for gi, g := range graphs {
		want := ComputeRoutesParallel(g, 1)
		for _, workers := range []int{2, 3, 4, 8, 0} {
			got := ComputeRoutesParallel(g, workers)
			if len(got.Next) != len(want.Next) {
				t.Fatalf("graph %d workers=%d: %d rows, want %d", gi, workers, len(got.Next), len(want.Next))
			}
			for d := range want.Next {
				for a := range want.Next[d] {
					if got.Next[d][a] != want.Next[d][a] {
						t.Fatalf("graph %d workers=%d: Next[%d][%d] = %d, want %d",
							gi, workers, d, a, got.Next[d][a], want.Next[d][a])
					}
				}
			}
		}
	}
}
