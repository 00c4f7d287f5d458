package topology

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// referenceNextHops is the route kernel in its plain pull form: stage 2
// visits every AS without a customer route and scans all of its peers.
// It is the specification the push-form routeKernel is checked against.
// nh[dst] = dst; an unrouted AS has nh -1, class classNone and dist -1.
func referenceNextHops(g *Graph, dst int) (nh []int32, class []int8, dist []int32) {
	n := g.n
	nh, class, dist = make([]int32, n), make([]int8, n), make([]int32, n)
	for i := range nh {
		nh[i] = -1
		class[i] = classNone
		dist[i] = 1 << 30
	}
	nh[dst] = int32(dst)
	class[dst] = 0
	dist[dst] = 0

	// Stage 1: customer routes climb provider edges from dst. Level-order
	// BFS gives shortest paths; the lowest next-hop index wins ties
	// within a level.
	level := []int{dst}
	d := int32(0)
	for len(level) > 0 {
		d++
		var next []int
		for _, a := range level {
			for _, nb := range g.adj[a] {
				if nb.Rel != RelProvider {
					continue
				}
				p := nb.To
				if class[p] == classCustomer {
					if dist[p] == d && int32(a) < nh[p] {
						nh[p] = int32(a)
					}
					continue
				}
				if class[p] == classNone {
					class[p] = classCustomer
					dist[p] = d
					nh[p] = int32(a)
					next = append(next, p)
				}
			}
		}
		level = next
	}

	// Stage 2: peer routes: one peer edge from an AS holding a customer
	// route (or dst itself).
	for a := 0; a < n; a++ {
		if class[a] <= classCustomer {
			continue
		}
		best := int32(1 << 30)
		bestHop := int32(-1)
		for _, nb := range g.adj[a] {
			if nb.Rel != RelPeer {
				continue
			}
			b := nb.To
			if class[b] > classCustomer && b != dst {
				continue
			}
			if cand := dist[b] + 1; cand < best || (cand == best && int32(b) < bestHop) {
				best = cand
				bestHop = int32(b)
			}
		}
		if bestHop >= 0 {
			class[a] = classPeer
			dist[a] = best
			nh[a] = bestHop
		}
	}

	// Stage 3: provider routes descend customer edges from any routed
	// AS, chaining downward, bucketed by distance.
	maxD := int32(0)
	for a := 0; a < n; a++ {
		if class[a] != classNone && dist[a] > maxD && dist[a] < 1<<29 {
			maxD = dist[a]
		}
	}
	buckets := make([][]int, maxD+2)
	for a := 0; a < n; a++ {
		if class[a] != classNone {
			buckets[dist[a]] = append(buckets[dist[a]], a)
		}
	}
	for d := int32(0); int(d) < len(buckets); d++ {
		for _, a := range buckets[d] {
			if dist[a] != d {
				continue
			}
			for _, nb := range g.adj[a] {
				if nb.Rel != RelCustomer {
					continue
				}
				c := nb.To
				cand := d + 1
				switch {
				case class[c] < classProvider:
				case class[c] == classProvider && dist[c] < cand:
				case class[c] == classProvider && dist[c] == cand:
					if int32(a) < nh[c] {
						nh[c] = int32(a)
					}
				default:
					class[c] = classProvider
					dist[c] = cand
					nh[c] = int32(a)
					for int(cand) >= len(buckets) {
						buckets = append(buckets, nil)
					}
					buckets[cand] = append(buckets[cand], c)
				}
			}
		}
	}

	for a := 0; a < n; a++ {
		if class[a] == classNone {
			dist[a] = -1
		}
	}
	return nh, class, dist
}

// asGraph generates the AS graph Build would for cfg.
func asGraph(cfg Config) *Graph {
	_, g := generateASLevel(cfg, rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)))
	return g
}

// TestRoutesMatchReference holds the routes to the reference run over
// the whole graph, every source of each sampled destination row — so
// leaf rows and leaf columns are both checked: the textbook graph, random hierarchies, the small and medium
// profiles in full, and every 16th row of the large profile at three
// seeds.
func TestRoutesMatchReference(t *testing.T) {
	type tc struct {
		name   string
		g      *Graph
		stride int
	}
	cases := []tc{{"textbook", buildTestGraph(), 1}, {"leaves", leafGraph(), 1}}
	for seed := int64(1); seed <= 16; seed++ {
		cases = append(cases, tc{fmt.Sprintf("hierarchy/seed=%d", seed), randomHierarchy(seed), 1})
	}
	profiles := []struct {
		p      ScaleProfile
		seeds  []uint64
		stride int
	}{{ScaleSmall, []uint64{0}, 1}, {ScaleMedium, []uint64{0}, 1}, {ScaleLarge, []uint64{1, 2, 3}, 16}}
	if testing.Short() {
		profiles = profiles[:2]
	}
	for _, pr := range profiles {
		for _, seed := range pr.seeds {
			cfg, err := ProfileConfig(Epoch2016, pr.p)
			if err != nil {
				t.Fatal(err)
			}
			if seed != 0 {
				cfg.Seed = seed
			}
			cases = append(cases, tc{fmt.Sprintf("%s/seed=%d", pr.p, cfg.Seed), asGraph(cfg), pr.stride})
		}
	}
	for _, c := range cases {
		got := ComputeRoutes(c.g)
		for d := 0; d < c.g.N(); d += c.stride {
			want, _, _ := referenceNextHops(c.g, d)
			for a := range want {
				if hop := got.NextHop(a, d); hop != int(want[a]) {
					t.Fatalf("%s: NextHop(%d, %d) = %d, reference %d", c.name, a, d, hop, want[a])
				}
			}
		}
	}
}
