package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomHierarchy builds a random but well-formed AS hierarchy: a tier-1
// clique, transit ASes homed to tier-1s, stubs homed to transits, plus
// random peering. Every AS has a provider chain to the clique, so the
// graph is policy-connected.
func randomHierarchy(seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	nT1 := 2 + r.Intn(3)
	nTr := 3 + r.Intn(5)
	nSt := 5 + r.Intn(10)
	g := NewGraph(nT1 + nTr + nSt)
	for i := 0; i < nT1; i++ {
		for j := i + 1; j < nT1; j++ {
			g.AddLink(i, j, RelPeer)
		}
	}
	for t := nT1; t < nT1+nTr; t++ {
		g.AddLink(r.Intn(nT1), t, RelCustomer)
		if r.Float64() < 0.3 {
			g.AddLink(r.Intn(nT1), t, RelCustomer)
		}
	}
	for s := nT1 + nTr; s < g.N(); s++ {
		g.AddLink(nT1+r.Intn(nTr), s, RelCustomer)
	}
	// Random extra peering among transits and stubs.
	for k := 0; k < g.N()/2; k++ {
		a, b := nT1+r.Intn(nTr+nSt), nT1+r.Intn(nTr+nSt)
		if a != b && !g.HasLink(a, b) {
			g.AddLink(a, b, RelPeer)
		}
	}
	return g
}

// relOf returns the relationship of b from a's perspective.
func relOf(g *Graph, a, b int) (Rel, bool) {
	for _, nb := range g.Neighbors(a) {
		if nb.To == b {
			return nb.Rel, true
		}
	}
	return 0, false
}

// TestQuickRoutesValleyFree property: on random well-formed hierarchies,
// every computed path exists, is loop-free, and is valley-free.
func TestQuickRoutesValleyFree(t *testing.T) {
	f := func(seed int64) bool {
		g := randomHierarchy(seed)
		routes := ComputeRoutes(g)
		for s := 0; s < g.N(); s++ {
			for d := 0; d < g.N(); d++ {
				p := routes.Path(s, d)
				if p == nil {
					return false // hierarchy guarantees connectivity
				}
				seen := make(map[int]bool)
				for _, a := range p {
					if seen[a] {
						return false // loop
					}
					seen[a] = true
				}
				descended := false
				for i := 0; i+1 < len(p); i++ {
					rel, ok := relOf(g, p[i], p[i+1])
					if !ok {
						return false // path uses a nonexistent link
					}
					switch rel {
					case RelCustomer:
						descended = true
					case RelPeer:
						if descended {
							return false
						}
						descended = true
					case RelProvider:
						if descended {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickRoutesPreferCustomer property: whenever the destination is a
// (transitive) customer of the source, the path never climbs to a
// provider of the source first.
func TestQuickRoutesPreferCustomer(t *testing.T) {
	f := func(seed int64) bool {
		g := randomHierarchy(seed)
		k := newRouteKernel(splitByRel(g), g.N())
		nh := make([]int32, g.N())
		for d := 0; d < g.N(); d++ {
			k.row(int32(d), nh)
			cls := k.class
			for s := 0; s < g.N(); s++ {
				if s == d {
					continue
				}
				if cls[s] == classCustomer {
					rel, ok := relOf(g, s, int(nh[s]))
					if !ok || rel != RelCustomer {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickRoutesSymmetricReachability property: reachability is
// symmetric under Gao-Rexford on well-formed hierarchies (if s reaches
// d, d reaches s — both have provider chains to the clique).
func TestQuickRoutesSymmetricReachability(t *testing.T) {
	f := func(seed int64) bool {
		g := randomHierarchy(seed)
		routes := ComputeRoutes(g)
		for s := 0; s < g.N(); s++ {
			for d := s + 1; d < g.N(); d++ {
				if (routes.Path(s, d) == nil) != (routes.Path(d, s) == nil) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
