package netsim

import (
	"slices"
	"time"
)

// A network is a plane and an overlay (DESIGN.md §10). The plane is what
// building decided — nodes, wiring, behaviours, routes, fault parameters
// — as flat tables whose records name each other by dense id: nothing for
// the GC to trace, and any number of networks can read one. The overlay
// is what traffic changes, in per-Network arrays indexed by the same ids.
// A plane is written only through Network.mutable, which first copies one
// that other networks may hold, so a shared plane is immutable.

// NodeID identifies a node of a network: its index in registration
// order. Replicas cloned from a snapshot number their nodes alike.
type NodeID int32

// IfaceID identifies an interface: its index in Connect order. NoIface
// is the id of none: no route, no uplink.
type IfaceID int32

const NoIface IfaceID = -1

const (
	kindRouter = iota
	kindHost
	kindForeign // a Node implemented outside this package; see Network.register
)

// nodeRef names a node's record: its kind and its index in that kind's
// table (plane.routers, plane.hosts, Network.foreign).
type nodeRef int32

func refOf(kind, idx int) nodeRef { return nodeRef(idx<<2 | kind) }
func (r nodeRef) kind() int       { return int(r & 3) }
func (r nodeRef) idx() int32      { return int32(r >> 2) }

// ifaceRec is one end of a point-to-point link.
type ifaceRec struct {
	addr   uint32  // key4 of the interface address, what routers stamp
	owner  nodeRef // the node it belongs to
	peer   IfaceID // the other end of the link
	faults int32   // index into plane.linkFaults, -1 for none
	delay  time.Duration
	loss   float64 // per-direction drop probability (Iface.SetLoss)
}

// routerRec is a router's plane record. Its slices are filed by layout
// from the interface table, and may lie in arrays other planes read.
type routerRec struct {
	node     NodeID
	faults   int32 // index into plane.routerFaults, -1 for none
	behavior RouterBehavior
	ifaces   []IfaceID // in attachment order
	local    []uint32  // packed interface addresses; see ownsAddr
	fib      FIB
}

// hostRec is a host and, through uplink, its access link. Its addresses
// are the run plane.haddrs[addrOff:addrOff+addrN], primary first.
type hostRec struct {
	node    NodeID
	uplink  IfaceID
	addrOff uint32
	stamp   uint32 // key4 of HostBehavior.StampAddr, 0 when unset
	addrN   uint16
	b       hostBits
}

// RouteFunc is a routing oracle consulted before a router's FIB: the
// egress interface at router (an index in AddRouter order) toward the
// packed IPv4 destination dst, or NoIface to fall back to the FIB.
type RouteFunc func(router int, dst uint32) IfaceID

type plane struct {
	nodes   []nodeRef // by NodeID
	routers []routerRec
	hosts   []hostRec
	ifaces  []ifaceRec // by IfaceID
	laid    int        // ifaces[:laid] are filed in their routers' tables
	haddrs  []uint32   // host address runs

	linkFaults   []linkFaults
	routerFaults []routerFaults

	oracle RouteFunc

	// Names are bytes in one arena: node id's is
	// names[nameEnd[id-1]:nameEnd[id]].
	names   []byte
	nameEnd []uint32
}

// addrs returns the host's address run.
func (p *plane) addrs(h *hostRec) []uint32 {
	return p.haddrs[h.addrOff : h.addrOff+uint32(h.addrN)]
}

// name returns a node's name.
func (p *plane) name(id NodeID) string { return string(p.nameBytes(id)) }

// nameBytes returns a node's name as it lies in the arena.
func (p *plane) nameBytes(id NodeID) []byte {
	start := uint32(0)
	if id > 0 {
		start = p.nameEnd[id-1]
	}
	return p.names[start:p.nameEnd[id]]
}

// layout files the interfaces linked since the last layout into their
// routers' tables, in attachment order: the interface, its address in
// the local set, and a connected /32 route to the link peer, as real
// routers learn. A router given new interfaces gets its three slices
// anew, carved from arenas allocated once at their final size — a build
// laid out at Freeze makes three objects however many routers — and
// nothing is written where another plane reads.
func (p *plane) layout() {
	if p.laid == len(p.ifaces) {
		return
	}
	grow, ni, nr := make([]int, len(p.routers)), 0, 0
	for _, f := range p.ifaces[p.laid:] {
		if r := f.owner.idx(); f.owner.kind() == kindRouter {
			if grow[r] == 0 { // the router's tables move
				ni, nr = ni+len(p.routers[r].ifaces), nr+len(p.routers[r].fib.routes)
			}
			grow[r], ni, nr = grow[r]+1, ni+1, nr+1
		}
	}
	ifaces, local, routes := make([]IfaceID, 0, ni), make([]uint32, 0, ni), make([]fibRoute, 0, nr)
	for i, g := range grow {
		if r := &p.routers[i]; g > 0 {
			r.ifaces, r.local, r.fib.routes = carve(&ifaces, r.ifaces, g), carve(&local, r.local, g), carve(&routes, r.fib.routes, g)
		}
	}
	for id := p.laid; id < len(p.ifaces); id++ {
		if f := &p.ifaces[id]; f.owner.kind() == kindRouter {
			r := &p.routers[f.owner.idx()]
			r.ifaces = append(r.ifaces, IfaceID(id))
			r.local = append(r.local, f.addr)
			r.fib.add(p.ifaces[f.peer].addr, 32, IfaceID(id))
		}
	}
	p.laid = len(p.ifaces)
}

// carve copies s into an arena, followed by room for n more elements,
// and returns the copy with capacity for exactly those.
func carve[T any](arena *[]T, s []T, n int) []T {
	start := len(*arena)
	*arena = append(*arena, s...)[:start+len(s)+n]
	return (*arena)[start : start+len(s) : start+len(s)+n]
}

// clone returns a private copy of a shared plane. The routers' slices
// still point into the shared arrays, clipped to their length: appends
// to them reallocate, and the one in-place write, FIB.Add over an
// existing prefix, copies first.
func (p *plane) clone() *plane {
	routers := slices.Clone(p.routers)
	for i := range routers {
		r := &routers[i]
		r.ifaces, r.local, r.fib.routes = slices.Clip(r.ifaces), slices.Clip(r.local), slices.Clip(r.fib.routes)
	}
	return &plane{
		nodes:        slices.Clone(p.nodes),
		routers:      routers,
		hosts:        slices.Clone(p.hosts),
		ifaces:       slices.Clone(p.ifaces),
		laid:         p.laid,
		haddrs:       slices.Clone(p.haddrs),
		linkFaults:   slices.Clone(p.linkFaults),
		routerFaults: slices.Clone(p.routerFaults),
		oracle:       p.oracle,
		names:        slices.Clone(p.names),
		nameEnd:      slices.Clone(p.nameEnd),
	}
}
