package topology

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"recordroute/internal/netsim"
)

// refOracle is the routing oracle as it was before its tables became
// dense arrays: maps keyed by netip.Addr and interface pointers, filled
// from the built network's handles rather than by the builder — so it
// shares nothing with the oracle it is the reference for but the
// network they both describe.
type refOracle struct {
	t           *Topology
	hostIface   map[netip.Addr]*netsim.Iface // router-side iface toward a host
	hostAttach  map[netip.Addr]int           // attach router idx for a host addr
	routerAddr  map[netip.Addr]int           // router idx owning an infra addr
	parent      [][]int
	upIface     [][]*netsim.Iface
	downIface   [][]*netsim.Iface
	borderIface []map[int]*netsim.Iface
	borderIdx   []map[int]int
	destByAddr  map[netip.Addr]int32
	routerIndex map[*netsim.Router][2]int
}

func newRefOracle(t *Topology) *refOracle {
	r := &refOracle{
		t:           t,
		hostIface:   map[netip.Addr]*netsim.Iface{},
		hostAttach:  map[netip.Addr]int{},
		routerAddr:  map[netip.Addr]int{},
		destByAddr:  map[netip.Addr]int32{},
		routerIndex: map[*netsim.Router][2]int{},
	}
	for a, rs := range t.Routers {
		r.parent = append(r.parent, make([]int, len(rs)))
		r.upIface = append(r.upIface, make([]*netsim.Iface, len(rs)))
		r.downIface = append(r.downIface, make([]*netsim.Iface, len(rs)))
		r.borderIface = append(r.borderIface, map[int]*netsim.Iface{})
		r.borderIdx = append(r.borderIdx, map[int]int{})
		for j, rt := range rs {
			r.routerIndex[rt] = [2]int{a, j}
			r.parent[a][j] = -1
		}
	}
	for a, rs := range t.Routers {
		for j, rt := range rs {
			for _, ifc := range rt.Interfaces() {
				r.routerAddr[ifc.Addr] = j
				switch peer := ifc.Peer().Owner.(type) {
				case *netsim.Host:
					for _, addr := range peer.Addrs() {
						r.hostIface[addr], r.hostAttach[addr] = ifc, j
					}
				case *netsim.Router:
					switch at := r.routerIndex[peer]; {
					case at[0] != a:
						r.borderIface[a][at[0]], r.borderIdx[a][at[0]] = ifc, j
					case at[1] < j: // a child always has the higher index
						r.parent[a][j], r.upIface[a][j], r.downIface[a][j] = at[1], ifc, ifc.Peer()
					}
				}
			}
		}
	}
	for i, d := range t.Dests {
		r.destByAddr[d.Addr] = int32(i)
	}
	return r
}

func (r *refOracle) route(asIdx, rIdx int, dst netip.Addr) *netsim.Iface {
	t := r.t
	dstAS := t.ASOf(dst)
	if dstAS < 0 {
		return nil
	}
	if dstAS == asIdx {
		if tgt, ok := r.hostAttach[dst]; ok {
			if tgt == rIdx {
				return r.hostIface[dst]
			}
			return r.intraToward(asIdx, rIdx, tgt)
		}
		if tgt, ok := r.routerAddr[dst]; ok {
			if tgt == rIdx {
				return nil
			}
			return r.intraToward(asIdx, rIdx, tgt)
		}
		return nil
	}
	nh := t.Routes.NextHop(asIdx, dstAS)
	if nh < 0 {
		return nil
	}
	b, ok := r.borderIdx[asIdx][nh]
	if !ok {
		return nil
	}
	if b == rIdx {
		return r.borderIface[asIdx][nh]
	}
	return r.intraToward(asIdx, rIdx, b)
}

func (r *refOracle) intraToward(a, rIdx, tgt int) *netsim.Iface {
	if rIdx == tgt {
		return nil
	}
	for c := tgt; c >= 0; c = r.parent[a][c] {
		if r.parent[a][c] == rIdx {
			return r.downIface[a][c]
		}
	}
	return r.upIface[a][rIdx]
}

func (r *refOracle) forwardStampPath(src, dst netip.Addr) []netip.Addr {
	gw, ok := r.hostIface[src]
	if !ok {
		return nil
	}
	cur := gw.Owner.(*netsim.Router)
	var stamps []netip.Addr
	for hop := 0; hop < 64; hop++ {
		pos := r.routerIndex[cur]
		egress := r.route(pos[0], pos[1], dst)
		if egress == nil {
			if idx, isRouter := r.routerAddr[dst]; isRouter && idx == pos[1] && r.t.ASOf(dst) == pos[0] {
				return stamps
			}
			return nil
		}
		stamps = append(stamps, egress.Addr)
		next, isRouter := egress.Peer().Owner.(*netsim.Router)
		if !isRouter {
			return stamps
		}
		cur = next
	}
	return nil
}

// TestOracleMatchesMapReference holds the dense oracle to the map-based
// one: the same egress for every router and every kind of address
// (destinations, aliases, vantage points, infrastructure, unassigned and
// out-of-plan), and the same answers from the helpers built on it. Small
// worlds are checked exhaustively; medium ones at every address from one
// router in eight, a different eighth per seed.
func TestOracleMatchesMapReference(t *testing.T) {
	for _, scale := range []ScaleProfile{ScaleSmall, ScaleMedium} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, faults := range []*netsim.FaultConfig{nil, {Seed: seed, LossProb: 0.02, OutageFrac: 0.05, WithdrawFrac: 0.1, ChurnFrac: 0.2, ChurnProb: 0.3}} {
				scale, seed, faults := scale, seed, faults
				t.Run(fmt.Sprintf("%s/seed=%d/faults=%t", scale, seed, faults != nil), func(t *testing.T) {
					t.Parallel()
					cfg, err := ProfileConfig(Epoch2016, scale)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Seed, cfg.Faults = seed, faults
					stride := 1
					if scale == ScaleMedium {
						stride = 8
					}
					checkOracle(t, MustBuild(cfg), stride, int(seed))
				})
			}
		}
	}
}

func checkOracle(t *testing.T, topo *Topology, stride, offset int) {
	ref := newRefOracle(topo)

	var addrs []netip.Addr
	for a := range ref.hostAttach { // destinations, aliases, vantage points
		addrs = append(addrs, a)
	}
	for a := range ref.routerAddr {
		addrs = append(addrs, a)
	}
	for _, d := range topo.Dests[:min(50, len(topo.Dests))] {
		v := addrU32(d.Addr)
		addrs = append(addrs, u32Addr(v^0x40), u32Addr(v|0xff), u32Addr(v&^0xffff|0xf000), u32Addr(v&^0xffff|0xffff))
	}
	for _, s := range []string{"0.0.0.0", "99.255.255.255", "100.0.0.0", "203.0.113.9", "255.255.255.255"} {
		addrs = append(addrs, netip.MustParseAddr(s))
	}
	addrs = append(addrs, u32Addr(addrBase+uint32(len(topo.ASes))<<16), u32Addr(addrBase+uint32(len(topo.ASes))<<16-1))
	slices.SortFunc(addrs, netip.Addr.Compare)

	all := topo.Net.Routers()
	pairs := 0
	for router := offset % stride; router < len(all); router += stride {
		at := ref.routerIndex[all[router]]
		for _, a := range addrs {
			var want netip.Addr
			if e := ref.route(at[0], at[1], a); e != nil {
				want = e.Addr
			}
			var got netip.Addr
			if id, _ := topo.route(router, addrU32(a)); id != netsim.NoIface {
				got, _, _ = topo.Net.IfaceInfo(id)
			}
			if got != want {
				t.Fatalf("as%d-r%d → %v: egress %v, reference %v", at[0], at[1], a, got, want)
			}
			pairs++
		}
	}
	t.Logf("%d routers × %d addresses: %d lookups agree", (len(all)+stride-1)/stride, len(addrs), pairs)

	for _, a := range addrs {
		var want *netsim.Router
		if idx, ok := ref.routerAddr[a]; ok {
			want = topo.Routers[topo.ASOf(a)][idx]
		}
		if got := topo.RouterByAddr(a); got != want {
			t.Fatalf("RouterByAddr(%v) = %v, reference %v", a, got, want)
		}
		var wantDest *Dest
		if i, ok := ref.destByAddr[a]; ok {
			wantDest = topo.Dests[i]
		}
		if got := topo.DestByAddr(a); got != wantDest {
			t.Fatalf("DestByAddr(%v) = %v, reference %v", a, got, wantDest)
		}
		wantAS := -1
		if v := addrU32(a); v >= addrBase && int((v-addrBase)>>16) < len(topo.ASes) {
			wantAS = int((v - addrBase) >> 16)
		}
		if got := topo.ASOf(a); got != wantAS {
			t.Fatalf("ASOf(%v) = %d, want %d", a, got, wantAS)
		}
	}

	srcs := []netip.Addr{topo.Dests[0].Addr, netip.MustParseAddr("203.0.113.9")}
	for _, vp := range append(topo.VPs[:len(topo.VPs):len(topo.VPs)], topo.CloudVPs...) {
		srcs = append(srcs, vp.Addr)
	}
	for _, src := range srcs {
		for i := offset % stride; i < len(addrs); i += stride {
			if got, want := topo.ForwardStampPath(src, addrs[i]), ref.forwardStampPath(src, addrs[i]); !slices.Equal(got, want) {
				t.Fatalf("ForwardStampPath(%v, %v) = %v, reference %v", src, addrs[i], got, want)
			}
		}
	}
}
