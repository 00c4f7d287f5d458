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

// routerRec is a router's plane record. compact carves its slices from
// shared arenas, capped at their length: an append reallocates instead
// of writing where another network reads.
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

// compact moves every router's slices into three arenas, so that a
// plane holds a fixed number of heap objects however many routers. Each
// arena is allocated once, at its final size.
func (p *plane) compact() {
	ni, nr := 0, 0
	for i := range p.routers {
		ni, nr = ni+len(p.routers[i].ifaces), nr+len(p.routers[i].fib.routes)
	}
	ifaces, local, routes := make([]IfaceID, 0, ni), make([]uint32, 0, ni), make([]fibRoute, 0, nr)
	for i := range p.routers {
		r := &p.routers[i]
		r.ifaces, r.local, r.fib.routes = carve(&ifaces, r.ifaces), carve(&local, r.local), carve(&routes, r.fib.routes)
	}
}

// carve appends s to an arena with room for it and returns the copy,
// capped at its length: an append to it reallocates instead of writing
// over its neighbour in the arena.
func carve[T any](arena *[]T, s []T) []T {
	a := append(*arena, s...)
	*arena = a
	return a[len(a)-len(s) : len(a) : len(a)]
}

// clone returns a private copy of a shared plane. The routers' slices
// still point into the shared arenas: appends to them reallocate, and
// the one in-place write, FIB.Add over an existing prefix, copies first.
func (p *plane) clone() *plane {
	return &plane{
		nodes:        slices.Clone(p.nodes),
		routers:      slices.Clone(p.routers),
		hosts:        slices.Clone(p.hosts),
		ifaces:       slices.Clone(p.ifaces),
		haddrs:       slices.Clone(p.haddrs),
		linkFaults:   slices.Clone(p.linkFaults),
		routerFaults: slices.Clone(p.routerFaults),
		oracle:       p.oracle,
		names:        slices.Clone(p.names),
		nameEnd:      slices.Clone(p.nameEnd),
	}
}
