package topology

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Gao-Rexford policy routing over an AS-relationship graph.
//
// Each AS selects one best route per destination following the standard
// preference order — routes learned from customers over routes learned
// from peers over routes learned from providers, then shortest AS-path,
// then lowest next-hop index — under valley-free export rules: a route
// learned from a customer is exported to everyone; a route learned from
// a peer or provider is exported only to customers.

// Rel is an AS relationship, viewed from the AS holding the adjacency
// toward the neighbour it describes.
type Rel int8

const (
	// RelCustomer: the neighbour is my customer (I transit for it).
	RelCustomer Rel = iota
	// RelPeer: settlement-free peering.
	RelPeer
	// RelProvider: the neighbour is my provider.
	RelProvider
)

// Neighbor is one adjacency in the AS graph.
type Neighbor struct {
	To  int
	Rel Rel // relationship of To, from the owning AS's perspective
}

// Graph is an AS-relationship graph over ASes indexed 0..N-1.
type Graph struct {
	n   int
	adj [][]Neighbor
}

// NewGraph returns an empty graph over n ASes.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]Neighbor, n)}
}

// N returns the number of ASes.
func (g *Graph) N() int { return g.n }

// Neighbors returns a's adjacency list.
func (g *Graph) Neighbors(a int) []Neighbor { return g.adj[a] }

// AddLink records a relationship between a and b: rel is b's role from
// a's perspective (RelCustomer means b is a's customer). The reverse
// adjacency is added automatically.
func (g *Graph) AddLink(a, b int, rel Rel) {
	g.adj[a] = append(g.adj[a], Neighbor{To: b, Rel: rel})
	var back Rel
	switch rel {
	case RelCustomer:
		back = RelProvider
	case RelProvider:
		back = RelCustomer
	default:
		back = RelPeer
	}
	g.adj[b] = append(g.adj[b], Neighbor{To: a, Rel: back})
}

// HasLink reports whether a and b are adjacent.
func (g *Graph) HasLink(a, b int) bool {
	for _, nb := range g.adj[a] {
		if nb.To == b {
			return true
		}
	}
	return false
}

// route classes in preference order. classNone sorts last.
const (
	classCustomer int8 = 1
	classPeer     int8 = 2
	classProvider int8 = 3
	classNone     int8 = 4
)

// relAdj is a graph's adjacency split by relationship into flat runs:
// AS a's customers are to[off[3a]:off[3a+1]], its peers
// to[off[3a+1]:off[3a+2]] and its providers to[off[3a+2]:off[3a+3]].
// Each stage of the route kernel walks one relationship only.
type relAdj struct {
	off []int32
	to  []int32
}

// splitByRel returns the relAdj of g's subgraph over the ASes with a
// rank in cidx (-1 drops an AS), renumbered by rank.
func splitByRel(g *Graph, cidx []int32) *relAdj {
	s := &relAdj{off: make([]int32, 1, 3*g.n+1)}
	for a, l := range g.adj {
		if cidx[a] < 0 {
			continue
		}
		for r := RelCustomer; r <= RelProvider; r++ {
			for _, nb := range l {
				if nb.Rel == r && cidx[nb.To] >= 0 {
					s.to = append(s.to, cidx[nb.To])
				}
			}
			s.off = append(s.off, int32(len(s.to)))
		}
	}
	return s
}

// of returns a's neighbours of relationship r.
func (s *relAdj) of(a int32, r Rel) []int32 {
	k := 3*int(a) + int(r)
	return s.to[s.off[k]:s.off[k+1]]
}

// routeKernel computes next-hop rows one destination at a time. A worker
// owns one and reuses its scratch across rows; class, and dist where
// class is not classNone, describe the route each AS selected toward
// the last row's destination.
type routeKernel struct {
	adj     *relAdj
	class   []int8
	dist    []int32
	routed  []int32   // dst, the customer-routed ASes, then the peer-routed
	buckets [][]int32 // stage 3's frontier, by distance
}

func newRouteKernel(adj *relAdj, n int) *routeKernel {
	return &routeKernel{adj: adj, class: make([]int8, n), dist: make([]int32, n)}
}

// row writes into nh every AS's next hop on its best policy-compliant
// route toward dst: nh[dst] = dst, and -1 for an AS with no route.
func (k *routeKernel) row(dst int32, nh []int32) {
	class, dist := k.class, k.dist
	for a := range nh {
		nh[a], class[a] = -1, classNone
	}
	nh[dst], class[dst], dist[dst] = dst, 0, 0

	// Stage 1: customer routes climb provider edges from dst, level by
	// level, so the first route an AS learns is a shortest one; within a
	// level the lowest next-hop index wins. An AS is listed once, when it
	// is first reached.
	routed := append(k.routed[:0], dst)
	for lo, d := 0, int32(1); lo < len(routed); d++ {
		hi := len(routed)
		for _, a := range routed[lo:hi] {
			for _, p := range k.adj.of(a, RelProvider) {
				switch {
				case class[p] == classNone:
					class[p], dist[p], nh[p] = classCustomer, d, a
					routed = append(routed, p)
				case class[p] == classCustomer && dist[p] == d && a < nh[p]:
					nh[p] = a
				}
			}
		}
		lo = hi
	}

	// Stage 2: peer routes, one peer edge from dst or an AS holding a
	// customer route. Each such AS pushes its route to its peers rather
	// than every AS pulling from all of its own: the same candidates,
	// and the least (distance, next hop) wins either way. The range is
	// stage 1's list; the peer-routed ASes appended here are not in it.
	for _, b := range routed {
		cand := dist[b] + 1
		for _, a := range k.adj.of(b, RelPeer) {
			switch {
			case class[a] == classNone:
				class[a], dist[a], nh[a] = classPeer, cand, b
				routed = append(routed, a)
			case class[a] == classPeer && (cand < dist[a] || cand == dist[a] && b < nh[a]):
				dist[a], nh[a] = cand, b
			}
		}
	}
	k.routed = routed

	// Stage 3: provider routes descend customer edges from every routed
	// AS, chaining downward: a BFS whose seeds start at different
	// distances, so its frontier is bucketed by distance. An AS enters
	// one bucket, on its first route; within a bucket the lowest next hop
	// wins whatever the order.
	for d := range k.buckets {
		k.buckets[d] = k.buckets[d][:0]
	}
	for _, a := range routed {
		k.push(dist[a], a)
	}
	for d := int32(0); int(d) < len(k.buckets); d++ {
		cand := d + 1
		for _, a := range k.buckets[d] {
			for _, c := range k.adj.of(a, RelCustomer) {
				switch {
				case class[c] == classNone:
					class[c], dist[c], nh[c] = classProvider, cand, a
					k.push(cand, c)
				case class[c] == classProvider && dist[c] == cand && a < nh[c]:
					nh[c] = a
				}
			}
		}
	}
}

// push adds a to stage 3's bucket d.
func (k *routeKernel) push(d, a int32) {
	for int(d) >= len(k.buckets) {
		k.buckets = append(k.buckets, nil)
	}
	k.buckets[d] = append(k.buckets[d], a)
}

// Routes holds every AS's policy next hop toward every other. Only the
// core is tabulated: a leaf — one provider, no customers, no peers —
// routes wherever its provider does, through it, and is reached through
// it alone. No core route passes through a leaf, so the core's table is
// the whole graph's, row for row.
type Routes struct {
	via  []int32 // the core AS whose routes an AS takes: itself, or a leaf's provider
	cidx []int32 // a core AS's rank among the core ASes, ascending with index; -1 for a leaf
	m    int     // the core AS count
	// next[cidx[d]*m+cidx[a]] is core AS a's next hop toward core AS d,
	// as an AS index: d at d itself, -1 where a has no route.
	next []int32
}

// ComputeRoutes builds the routes on a bounded worker pool sized to the
// host (each destination row is independent; see ComputeRoutesParallel).
func ComputeRoutes(g *Graph) *Routes {
	return ComputeRoutesParallel(g, 0)
}

// ComputeRoutesParallel is ComputeRoutes with an explicit worker count
// (workers <= 0 selects min(GOMAXPROCS, NumCPU)). The kernel runs over
// the core graph, whose ranks ascend with AS index, so its lowest next
// hop tie-break compares the pairs it would over the whole graph. Each
// worker owns a kernel and writes only the rows it takes from a shared
// counter, so the result is bit-identical at any worker count.
func ComputeRoutesParallel(g *Graph, workers int) *Routes {
	r := &Routes{via: make([]int32, g.n), cidx: make([]int32, g.n)}
	var core []int32 // rank → AS index
	for a, l := range g.adj {
		if len(l) == 1 && l[0].Rel == RelProvider {
			r.via[a], r.cidx[a] = int32(l[0].To), -1
		} else {
			r.via[a], r.cidx[a] = int32(a), int32(len(core))
			core = append(core, int32(a))
		}
	}
	m := len(core)
	r.m, r.next = m, make([]int32, m*m)
	adj := splitByRel(g, r.cidx)
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, m); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := newRouteKernel(adj, m)
			for d := int(next.Add(1)) - 1; d < m; d = int(next.Add(1)) - 1 {
				row := r.next[d*m : (d+1)*m]
				k.row(int32(d), row)
				for a, h := range row {
					if h >= 0 {
						row[a] = core[h]
					}
				}
			}
		}()
	}
	wg.Wait()
	return r
}

// Path returns the AS-level path from src to dst (inclusive of both), or
// nil if unreachable.
func (r *Routes) Path(src, dst int) []int {
	path := []int{src}
	for cur := src; cur != dst; {
		if cur = r.NextHop(cur, dst); cur < 0 {
			return nil
		}
		path = append(path, cur)
		if len(path) > len(r.via) {
			return nil // routing loop; must not happen
		}
	}
	return path
}

// NextHop returns a's next-hop AS toward dst, or -1. A leaf goes to its
// provider wherever the provider has a route; toward a leaf, its
// provider hands over and everyone else heads for the provider.
func (r *Routes) NextHop(a, dst int) int {
	if a == dst {
		return dst
	}
	src, d := int(r.via[a]), int(r.via[dst])
	hop := dst // src is dst itself or dst's provider
	if src != d {
		hop = int(r.next[int(r.cidx[d])*r.m+int(r.cidx[src])])
	}
	if src != a && hop >= 0 {
		return src
	}
	return hop
}
