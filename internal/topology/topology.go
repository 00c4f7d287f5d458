// Package topology generates synthetic Internet topologies — an AS-level
// relationship graph with Gao-Rexford policy routing, expanded into a
// router-level packet network on internal/netsim — and places vantage
// points, destinations, and the behaviour mix (options filtering,
// non-stamping routers, rate limiters, aliases) that the Record Route
// study measures.
package topology

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"recordroute/internal/netsim"
)

// VPKind distinguishes vantage-point platforms.
type VPKind int

const (
	// MLab vantage points sit in transit/colo networks.
	MLab VPKind = iota
	// PlanetLab vantage points sit in enterprise (university) networks.
	PlanetLab
	// Cloud vantage points sit at a cloud provider's border (§3.6).
	Cloud
)

// String names the platform.
func (k VPKind) String() string {
	switch k {
	case MLab:
		return "mlab"
	case PlanetLab:
		return "planetlab"
	case Cloud:
		return "cloud"
	default:
		return fmt.Sprintf("VPKind(%d)", int(k))
	}
}

// VP is a measurement vantage point.
type VP struct {
	Name  string
	Kind  VPKind
	Addr  netip.Addr
	ASIdx int
	Host  *netsim.Host
	// SourceRateLimited marks VPs behind a source-proximate options
	// policer (ground truth for validating the §4.1 experiment).
	SourceRateLimited bool
}

// Dest is one probed destination: the representative address of one
// advertised /24, mirroring the paper's one-per-prefix hitlist. Dest
// records carry nothing of a particular network, so a topology and its
// clones share them.
type Dest struct {
	Addr   netip.Addr
	Prefix netip.Prefix
	ASIdx  int

	// Ground-truth behaviour flags, for white-box validation only;
	// analyses must work from probe responses.
	GTPingResponsive bool
	GTRRDrop         bool // host-level options filtering
	GTNoHonorRR      bool
	GTAlias          netip.Addr // valid when the host stamps an alias
	GTUDPResponsive  bool
}

// Topology is a fully built simulated Internet.
type Topology struct {
	Cfg    Config
	Net    *netsim.Network
	Graph  *Graph
	Routes *Routes
	ASes   []*AS

	// Routers[a] lists AS a's routers; index 0 is the intra-AS hub.
	Routers [][]*netsim.Router
	// Dests are the probe targets in roster order.
	Dests []*Dest
	// VPs lists M-Lab then PlanetLab vantage points. CloudVPs lists the
	// per-cloud measurement hosts separately.
	VPs      []*VP
	CloudVPs []*VP
	// Faults summarizes the installed fault plan (zero when Cfg.Faults
	// is nil).
	Faults netsim.FaultSummary

	*oracle
}

// routerRow is a router's place in its AS's tree, rooted at router 0.
type routerRow struct {
	as       int32
	parent   int32          // the parent's index in the AS, -1 for the root
	up, down netsim.IfaceID // toward the parent; the parent's, toward this router
}

// hostRow is what the oracle knows of one host: where it attaches and,
// for a destination (found by prefix), which addresses in its /24 it has.
type hostRow struct {
	gw     netsim.IfaceID // attach router's interface toward the host
	attach uint16         // attach router's index in the AS
	octet  uint8          // last octet of the host's address
	alias  bool           // the host also answers at aliasOctet
}

// vpRow is a vantage-point host, found by its address.
type vpRow struct {
	addr uint32
	node netsim.NodeID
	hostRow
}

// borderRow is one inter-AS link seen from one side.
type borderRow struct {
	nbr    int32          // the neighbouring AS
	router int32          // this AS's border router for it
	out    netsim.IfaceID // that router's interface on the link
}

// oracle is the routing oracle and every address index of a topology:
// dense, pointer-free arrays addressed by the address plan's arithmetic
// (addr.go). It is immutable once Build returns, and shared by a
// topology and its clones: every replica's netsim calls route on it.
type oracle struct {
	numASes int
	routes  *Routes

	// Routers are the network's first nodes, AS by AS, so AS a's router j
	// has node id and router index rtrBase[a]+j. The dedicated gateways of
	// rate-limited VPs come last in their AS, after its NumRouters.
	rtrBase []int32
	rtr     []routerRow

	// Destinations: AS a's prefix j is row destBase[a]+j, which is also
	// its index in Dests and, offset by the router count, its host's node.
	destBase []int32
	dest     []hostRow
	vps      []vpRow // VPs then CloudVPs: a few dozen, scanned

	// Infrastructure addresses: slot s of AS a (asPlan.owner) belongs to
	// the AS's router infraRtr[infraBase[a]+s].
	infraBase []int32
	infraRtr  []int32

	// Inter-AS links: AS a's side of each of its links is a row of
	// border[borderBase[a]:borderBase[a+1]], sorted by neighbour.
	borderBase []int32
	border     []borderRow
}

// router returns AS as's router j's row and netsim index; node, its id.
func (o *oracle) router(as, j int) int         { return int(o.rtrBase[as]) + j }
func (o *oracle) node(as, j int) netsim.NodeID { return netsim.NodeID(o.router(as, j)) }

// aliasOctet is the last octet of an alias address (asPlan.AliasAddr).
const aliasOctet = 129

// hostAt returns the host owning address v of AS as, or nil.
func (o *oracle) hostAt(as int, v uint32) *hostRow {
	switch slot := int(v >> 8 & 0xff); {
	case slot < int(o.destBase[as+1]-o.destBase[as]):
		d := &o.dest[int(o.destBase[as])+slot]
		if low := uint8(v); low == d.octet || (d.alias && low == aliasOctet) {
			return d
		}
	case slot == vpSlot:
		for i := range o.vps {
			if o.vps[i].addr == v {
				return &o.vps[i].hostRow
			}
		}
	}
	return nil
}

// routerAt returns the index in AS as of the router owning
// infrastructure address v.
func (o *oracle) routerAt(as int, v uint32) (int, bool) {
	if s := infraTop - int(v&0xffff); s >= 0 && s < int(o.infraBase[as+1]-o.infraBase[as]) {
		return int(o.infraRtr[int(o.infraBase[as])+s]), true
	}
	return 0, false
}

// borderTo returns AS as's side of its link to the neighbouring AS nbr.
func (o *oracle) borderTo(as, nbr int) (borderRow, bool) {
	run := o.border[o.borderBase[as]:o.borderBase[as+1]]
	if i, ok := slices.BinarySearchFunc(run, int32(nbr), func(b borderRow, n int32) int { return cmp.Compare(b.nbr, n) }); ok {
		return run[i], true
	}
	return borderRow{}, false
}

// route is the shared routing oracle (a netsim.RouteFunc): the egress
// interface for a packet at a router toward dst, or NoIface to fall back
// to the router's FIB. Toward another AS it depends on dst's AS alone,
// whose addresses are its /16 (addr.go): the answer is wide.
func (o *oracle) route(router int, dst uint32) (netsim.IfaceID, bool) {
	as := int(o.rtr[router].as)
	j := router - int(o.rtrBase[as])
	dstAS := asOfKey(dst, o.numASes)
	if dstAS < 0 {
		return netsim.NoIface, false
	}
	if dstAS == as {
		// Intra-AS delivery: find the target router, then walk the tree.
		if h := o.hostAt(as, dst); h != nil {
			if int(h.attach) == j {
				return h.gw, false
			}
			return o.intraToward(as, j, int(h.attach)), false
		}
		if tgt, ok := o.routerAt(as, dst); ok {
			return o.intraToward(as, j, tgt), false // NoIface when local to this router
		}
		return netsim.NoIface, false
	}
	nh := o.routes.NextHop(as, dstAS)
	if nh < 0 {
		return netsim.NoIface, false
	}
	// Route toward the border with the next-hop AS. When there is no
	// direct adjacency (shouldn't happen with consistent routes), drop.
	b, ok := o.borderTo(as, nh)
	if !ok {
		return netsim.NoIface, false
	}
	if int(b.router) == j {
		return b.out, true
	}
	return o.intraToward(as, j, int(b.router)), true
}

// intraToward returns the next interface from router j toward router tgt
// inside AS as, NoIface when they are the same: if tgt is in j's subtree
// the packet goes down one child; otherwise it climbs to j's parent.
func (o *oracle) intraToward(as, j, tgt int) netsim.IfaceID {
	if j == tgt {
		return netsim.NoIface
	}
	// Climb from tgt toward the root; if we pass through j, tgt is below
	// us and the crossing child is the next hop downward.
	rows := o.rtr[o.rtrBase[as]:]
	for c := tgt; c >= 0; c = int(rows[c].parent) {
		if int(rows[c].parent) == j {
			return rows[c].down
		}
	}
	return rows[j].up
}

// RouterByAddr returns the router owning an infrastructure address, or
// nil. Tests use it to consult ground-truth router behaviour.
func (t *Topology) RouterByAddr(a netip.Addr) *netsim.Router {
	if as := t.ASOf(a); as >= 0 {
		if j, ok := t.routerAt(as, addrU32(a)); ok {
			return t.Routers[as][j]
		}
	}
	return nil
}

// ForwardStampPath returns the egress interface addresses a packet from
// the host at src would traverse to reach dst — the Record Route stamps
// a fully conformant path would record, excluding the destination's own
// stamp. It is ground truth for validating measurements; nil when either
// address is unknown or unrouted.
func (t *Topology) ForwardStampPath(src, dst netip.Addr) []netip.Addr {
	srcAS, dstAS := t.ASOf(src), t.ASOf(dst)
	if srcAS < 0 || dstAS < 0 {
		return nil
	}
	h := t.hostAt(srcAS, addrU32(src))
	if h == nil {
		return nil
	}
	_, _, cur := t.Net.IfaceInfo(h.gw)
	var stamps []netip.Addr
	for hop := 0; hop < 64; hop++ {
		egress, _ := t.route(cur, addrU32(dst))
		if egress == netsim.NoIface {
			// Local delivery to this router itself.
			if j, ok := t.routerAt(dstAS, addrU32(dst)); ok && cur == t.router(dstAS, j) {
				return stamps
			}
			return nil
		}
		addr, peer, _ := t.Net.IfaceInfo(egress)
		stamps = append(stamps, addr)
		if _, _, cur = t.Net.IfaceInfo(peer); cur < 0 {
			return stamps // delivered to the host
		}
	}
	return nil
}

// ASOf maps any address from the plan to its owning AS index, or -1.
func (t *Topology) ASOf(a netip.Addr) int { return asOfAddr(a, len(t.ASes)) }

// ASNOf maps an address to its owning AS number, or -1.
func (t *Topology) ASNOf(a netip.Addr) int {
	idx := t.ASOf(a)
	if idx < 0 {
		return -1
	}
	return t.ASes[idx].ASN
}

// DestByAddr returns the destination record probed at a, or nil.
func (t *Topology) DestByAddr(a netip.Addr) *Dest {
	if as := t.ASOf(a); as >= 0 {
		if j := int(addrU32(a) >> 8 & 0xff); j < t.ASes[as].NumPrefixes {
			if d := t.Dests[int(t.destBase[as])+j]; d.Addr == a {
				return d
			}
		}
	}
	return nil
}

// VPByName returns the named vantage point (including clouds), or nil.
func (t *Topology) VPByName(name string) *VP {
	for _, vps := range [2][]*VP{t.VPs, t.CloudVPs} {
		for _, v := range vps {
			if v.Name == name {
				return v
			}
		}
	}
	return nil
}
