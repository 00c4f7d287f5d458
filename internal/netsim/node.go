package netsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"recordroute/internal/packet"
)

// Node is anything attachable to the network: a router or a host.
// *Router, *Host and *Iface are handles — a network and an id — onto the
// records of plane.go. A network makes one per node and interface, the
// first time somebody asks, so handles compare by identity; the packet
// path never makes or follows one.
type Node interface {
	// Name returns the node's unique name within its Network.
	Name() string
	// Receive handles a serialized IPv4 datagram arriving on iface.
	Receive(pkt []byte, on *Iface)
}

// Iface is one end of a point-to-point link.
type Iface struct {
	// Addr is the interface's IPv4 address.
	Addr netip.Addr
	// Owner is the node this interface belongs to.
	Owner Node

	net *Network
	id  IfaceID
}

// Peer returns the interface at the other end of the link.
func (i *Iface) Peer() *Iface { return i.net.iface(i.net.p.ifaces[i.id].peer) }

// SetLoss sets the probability that a packet transmitted from this
// interface is silently dropped (failure injection). Loss draws come
// from the network's deterministic RNG.
func (i *Iface) SetLoss(p float64) { i.net.mutable().ifaces[i.id].loss = p }

// Send schedules pkt for delivery to the link peer after the link delay.
// Ownership of the buffer transfers to the network: it must not be
// modified or retained by the caller afterwards (it is recycled into the
// serialization pool once the receiver returns).
func (i *Iface) Send(pkt []byte) { i.net.send(&i.net.p.ifaces[i.id], pkt) }

// send is Iface.Send on the interface's record.
func (n *Network) send(i *ifaceRec, pkt []byte) {
	if i.loss > 0 && n.lossDraw() < i.loss {
		n.CountID(cLinkLoss, 1)
		n.putBuf(pkt)
		return
	}
	delay := i.delay
	if i.faults >= 0 {
		f := &n.p.linkFaults[i.faults]
		if f.down.active(n.Now()) {
			n.CountID(cChaosLinkDown, 1)
			n.putBuf(pkt)
			return
		}
		if f.loss > 0 && chaosDraw(f.salt, chaosSaltLoss, pkt) < f.loss {
			n.CountID(cChaosLoss, 1)
			n.putBuf(pkt)
			return
		}
		if f.jitterMax > 0 {
			delay += time.Duration(chaosDraw(f.salt, chaosSaltJitter, pkt) * float64(f.jitterMax))
		}
		if f.dup > 0 && chaosDraw(f.salt, chaosSaltDup, pkt) < f.dup {
			cp := append(n.getBuf(), pkt...)
			n.CountID(cChaosDup, 1)
			n.engine.scheduleDelivery(delay+i.delay/2, cp, i.peer)
		}
	}
	n.CountID(cLinkTx, 1)
	n.engine.scheduleDelivery(delay, pkt, i.peer)
}

// deliver hands a packet that crossed a link to the owner of the
// interface it arrives on; the engine calls it for every delivery event.
func (n *Network) deliver(pkt []byte, on IfaceID) {
	switch o := n.p.ifaces[on].owner; o.kind() {
	case kindRouter:
		n.routerReceive(o.idx(), pkt, on)
	case kindHost:
		n.hostReceive(o.idx(), pkt)
	default:
		n.foreign[o.idx()].Receive(pkt, n.iface(on))
	}
	n.putBuf(pkt)
}

// key4 packs an IPv4 address into the big-endian uint32 that route memos
// and local-address sets are keyed by — the value the forward path reads
// straight out of a header; ok is false for anything but IPv4.
func key4(a netip.Addr) (k uint32, ok bool) {
	if a = a.Unmap(); !a.Is4() {
		return 0, false
	}
	b := a.As4()
	return binary.BigEndian.Uint32(b[:]), true
}

// addrOf inverts key4.
func addrOf(k uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)})
}

// ipidVelFloor and ipidVelCeil bound a device's IP-ID velocity, in IDs
// per virtual second (see ipidAt). The floor is above the fastest probe
// rate anything sends at (200 pps), so two replies one probe interval
// apart always carry different IDs; the ceiling is under the velocity
// bound alias.Config assumes by default (2,000 IDs/s).
const ipidVelFloor, ipidVelCeil = 250, 1750

// ipidAt is the IP identifier the device named name stamps on a packet
// it originates at virtual time t: seed + ⌊v·t⌋ mod 2^16, with seed and
// velocity v derived from the name (FNV-1a), so distinct devices start
// far apart and move at their own pace — as real, long-running counters
// driven by background traffic do. Interfaces of one device share the
// counter; that shared monotonic sequence is what MIDAR-style alias
// resolution detects. Being a pure function of (device, time), it is the
// same whichever replica of a network sends the packet.
func ipidAt(name []byte, t time.Duration) uint16 {
	var h uint32 = 2166136261
	for _, c := range name {
		h ^= uint32(c)
		h *= 16777619
	}
	v := ipidVelFloor + uint64(h%(ipidVelCeil-ipidVelFloor))
	return (uint16(h>>16) ^ uint16(h)) + uint16(v*uint64(t)/uint64(time.Second))
}

// routerState is a router's overlay: what traffic through it changes.
type routerState struct {
	// memo memoizes lookupRoute4 per destination (negative results
	// included): the oracle recomputes a policy path on every call, and
	// forwarding asks the same for every probe of a campaign. Emptied
	// whenever routing changes.
	memo routeMemo
	// Policers are made on first use: a fresh bucket starts full and
	// refills clamp at burst, so one born at virtual time t equals one
	// born at time 0 and first consulted at t.
	limiter, errLimiter *TokenBucket
	wFlips              int // withdraw.flips at the last route lookup
}

// Network owns the engine, a plane (see plane.go) and the overlay that
// traffic over that plane mutates.
type Network struct {
	engine *Engine
	p      *plane
	shared bool // other networks may hold p: copy before writing (Freeze)

	// Overlay, indexed by the plane's ids.
	rs       []routerState // by router index
	snifSlot []int32       // by host index: slot+1 in sniffers, 0 for none
	sniffers []SnifferFunc
	foreign  []Node // nodes of kindForeign; they carry their own state

	// Handles given out so far, one per record, and the name index Node
	// builds on its first call (campaigns address nodes by id).
	routerH []*Router
	hostH   map[int32]*Host
	ifaceH  map[IfaceID]*Iface
	byName  map[string]NodeID

	counters []uint64 // indexed by interned counter ID
	lossRNG  uint64   // xorshift state for deterministic loss draws
	// faultEpoch is the coarse clock of a recurring campaign: churned
	// prefixes (FaultConfig.ChurnProb) are withdrawn or present as a pure
	// function of it. Clones inherit it; it never enters the plane.
	faultEpoch int
	hook       func(at time.Duration, counter string)
	bufs       [][]byte // free list of serialization buffers
	bufSlab    []byte   // arena the free list's buffers are carved from

	// Scratch for the packet being received and the reply to it: a reply
	// is serialized before Receive returns, and nothing re-enters Receive.
	ip           packet.IPv4
	rr           packet.RecordRoute
	sr           packet.SourceRoute
	ts           packet.Timestamp
	replyOpts    [2]packet.Option
	replyOptData [2][packet.MaxOptionsLen]byte

	// Observability (obs.go): off by default, a nil check per packet.
	tracer     TraceFunc
	nodeCounts map[NodeID][]uint64 // counters by ID
	nodeNames  map[NodeID]string   // names handed to the tracer so far
}

// bufCap is the capacity of pooled packet buffers: 128 bytes covers an
// IPv4 header, a 40-byte RR/TS option, and every payload the simulator
// generates. A packet that outgrows it leaves the arena on its growth
// append (AppendTo copies to a fresh heap slice).
const bufCap = 128

// bufSlabSize is the arena growth quantum: 256 buffers (32 KiB) at a
// time, so a replica's steady-state pool is a handful of large
// pointer-free allocations, not one per packet in flight.
const bufSlabSize = 256 * bufCap

// getBuf returns an empty buffer for packet serialization: a recycled
// one, or a fresh one carved from the arena. Buffers flow getBuf →
// AppendTo → Iface.Send → delivery → putBuf; receivers must never retain
// delivered bytes beyond Receive (the Send/sniffer contract), which is
// what makes the recycling safe (DESIGN.md §12).
func (n *Network) getBuf() []byte {
	if len(n.bufs) == 0 {
		if len(n.bufSlab) < bufCap {
			n.bufSlab = make([]byte, bufSlabSize)
		}
		b := n.bufSlab[:0:bufCap]
		n.bufSlab = n.bufSlab[bufCap:]
		return b
	}
	b := n.bufs[len(n.bufs)-1]
	n.bufs = n.bufs[:len(n.bufs)-1]
	return b
}

// putBuf returns a packet buffer to the free list. One that outgrew the
// arena is recycled all the same: the pool tracks slices, not offsets.
func (n *Network) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	n.bufs = append(n.bufs, b[:0])
}

// lossSeed is the fixed initial xorshift state for link-loss draws; a
// replica restarts from it, exactly like a fresh build.
const lossSeed = 0x9e3779b97f4a7c15

// New returns an empty network with a fresh engine.
func New() *Network { return newNetwork(&plane{}) }

// newNetwork returns a network over p with an empty overlay. Counters
// are preallocated to the registry's size and cache-line padded
// (newCounters): CountID never grows them on a hot path, and shard
// replicas never share a counter cache line.
func newNetwork(p *plane) *Network {
	n := &Network{engine: NewEngine(), p: p, lossRNG: lossSeed, counters: newCounters(),
		hostH: map[int32]*Host{}, ifaceH: map[IfaceID]*Iface{}, nodeNames: map[NodeID]string{}}
	n.engine.net = n
	return n
}

// mutable returns the plane for writing, first taking a private copy of
// one that other networks may be reading.
func (n *Network) mutable() *plane {
	if n.shared {
		n.p, n.shared = n.p.clone(), false
	}
	return n.p
}

// lossDraw returns a deterministic uniform draw in [0, 1) for link-loss
// decisions (xorshift64*, cheap and reproducible).
func (n *Network) lossDraw() float64 {
	x := n.lossRNG
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	n.lossRNG = x
	return float64(x*0x2545f4914f6cdd1d>>11) / float64(1<<53)
}

// Engine returns the network's event engine.
func (n *Network) Engine() *Engine { return n.engine }

// FaultEpoch returns the current fault epoch (see SetFaultEpoch).
func (n *Network) FaultEpoch() int { return n.faultEpoch }

// SetFaultEpoch advances the long-horizon churn clock: epoch-churned
// prefixes are withdrawn for the whole of epoch e iff their per-epoch
// draw fires (routerFaults.churned). Memos of churn-afflicted routers
// are emptied so nothing cached under the previous epoch leaks across.
// Campaigns set the epoch once, before any traffic; within an epoch
// churn is constant, which keeps renders byte-identical across shard
// counts and restarts.
func (n *Network) SetFaultEpoch(e int) {
	if e == n.faultEpoch {
		return
	}
	n.faultEpoch = e
	for i := range n.p.routers {
		if f := n.p.routers[i].faults; f >= 0 && n.p.routerFaults[f].churnPrefix.IsValid() {
			n.rs[i].memo.reset()
		}
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.engine.Now() }

// Count adds delta to the named counter. Counter names are dotted paths
// such as "drop.ratelimit" or "fwd.options". Hot paths pre-intern the
// name with CounterID and call CountID instead.
func (n *Network) Count(name string, delta uint64) {
	n.CountID(CounterID(name), delta)
}

// CountID adds delta to the counter with the given interned ID. The
// unobserved case is all the compiler inlines at the per-packet call
// sites.
func (n *Network) CountID(id int, delta uint64) {
	if id < len(n.counters) && n.hook == nil {
		n.counters[id] += delta
	} else {
		n.countHooked(id, delta)
	}
}

func (n *Network) countHooked(id int, delta uint64) {
	if id >= len(n.counters) {
		n.counters = append(n.counters, make([]uint64, id+1-len(n.counters))...)
	}
	n.counters[id] += delta
	if n.hook != nil {
		n.hook(n.engine.Now(), counterName(id))
	}
}

// SetEventHook installs a live observer invoked on every counter event
// with the virtual time and counter name — a lightweight tracing
// facility for debugging simulations. Pass nil to remove it.
func (n *Network) SetEventHook(fn func(at time.Duration, counter string)) { n.hook = fn }

// Counter returns the named counter's value.
func (n *Network) Counter(name string) uint64 {
	id, ok := lookupCounterID(name)
	if !ok || id >= len(n.counters) {
		return 0
	}
	return n.counters[id]
}

// Counters returns a sorted snapshot of all nonzero counters, for logs
// and tests.
func (n *Network) Counters() []string {
	names := counterSnapshot()
	var out []string
	for id, v := range n.counters {
		if v != 0 {
			out = append(out, fmt.Sprintf("%s=%d", names[id], v))
		}
	}
	sort.Strings(out)
	return out
}

// Node returns the named node, or nil. It panics if two nodes share a
// name: topology construction bugs should fail loudly.
func (n *Network) Node(name string) Node {
	if n.byName == nil {
		n.byName = make(map[string]NodeID, len(n.p.nodes))
		for i := range n.p.nodes {
			s := n.p.name(NodeID(i))
			if _, dup := n.byName[s]; dup {
				panic("netsim: duplicate node name " + s)
			}
			n.byName[s] = NodeID(i)
		}
	}
	if id, ok := n.byName[name]; ok {
		return n.node(id)
	}
	return nil
}

// NumNodes returns how many nodes have been added.
func (n *Network) NumNodes() int { return len(n.p.nodes) }

// node returns the handle of a node.
func (n *Network) node(id NodeID) Node { return n.handle(n.p.nodes[id]) }

func (n *Network) handle(r nodeRef) Node {
	switch r.kind() {
	case kindRouter:
		return n.Routers()[r.idx()]
	case kindHost:
		return n.host(r.idx())
	default:
		return n.foreign[r.idx()]
	}
}

// Host returns the handle of the host with the given id (not a router's).
func (n *Network) Host(id NodeID) *Host { return n.node(id).(*Host) }

// Routers returns every router's handle, in AddRouter order; the slice
// is the network's own. Handles not made yet come from one block, so a
// replica that wants them all pays one allocation.
func (n *Network) Routers() []*Router {
	if missing := len(n.p.routers) - len(n.routerH); missing > 0 {
		block := make([]Router, missing)
		n.routerH = slices.Grow(n.routerH, missing)
		for i := range block {
			block[i] = Router{net: n, idx: int32(len(n.routerH))}
			n.routerH = append(n.routerH, &block[i])
		}
	}
	return n.routerH
}

func (n *Network) host(idx int32) *Host {
	h := n.hostH[idx]
	if h == nil {
		h = &Host{net: n, idx: idx}
		n.hostH[idx] = h
	}
	return h
}

// iface returns the handle of an interface, nil for NoIface.
func (n *Network) iface(id IfaceID) *Iface {
	if id < 0 {
		return nil
	}
	i := n.ifaceH[id]
	if i == nil {
		rec := &n.p.ifaces[id]
		i = &Iface{Addr: addrOf(rec.addr), Owner: n.handle(rec.owner), net: n, id: id}
		n.ifaceH[id] = i
	}
	return i
}

// IfaceInfo describes an interface by id, for walking the plane without
// handles: its address, the other end of its link, and the index (in
// AddRouter order) of the router it belongs to, -1 for a host's.
func (n *Network) IfaceInfo(id IfaceID) (addr netip.Addr, peer IfaceID, router int) {
	rec := &n.p.ifaces[id]
	if router = -1; rec.owner.kind() == kindRouter {
		router = int(rec.owner.idx())
	}
	return addrOf(rec.addr), rec.peer, router
}

// addNode registers a node record.
func (n *Network) addNode(ref nodeRef, name string) NodeID {
	p := n.mutable()
	id := NodeID(len(p.nodes))
	p.nodes = append(p.nodes, ref)
	p.names = append(p.names, name...)
	p.nameEnd = append(p.nameEnd, uint32(len(p.names)))
	n.byName = nil
	return id
}

// Reserve presizes the build tables for a network of nodes nodes, hosts
// of them hosts, whose names total nameBytes bytes, joined by links
// links: a generator that knows its size calls it first, and adding
// those nodes and links then regrows no table. A host is reserved one
// address; its aliases may grow the address table.
func (n *Network) Reserve(nodes, hosts, links, nameBytes int) {
	p := n.mutable()
	p.nodes, p.nameEnd = slices.Grow(p.nodes, nodes), slices.Grow(p.nameEnd, nodes)
	p.names = slices.Grow(p.names, nameBytes)
	p.routers, n.rs = slices.Grow(p.routers, nodes-hosts), slices.Grow(n.rs, nodes-hosts)
	p.hosts, p.haddrs, n.snifSlot = slices.Grow(p.hosts, hosts), slices.Grow(p.haddrs, hosts), slices.Grow(n.snifSlot, hosts)
	p.ifaces = slices.Grow(p.ifaces, 2*links)
}

// register adds a node implemented outside this package (tests tap links
// with one). Such a network cannot be cloned: the node's state is its own.
func (n *Network) register(node Node) {
	n.addNode(refOf(kindForeign, len(n.foreign)), node.Name())
	n.foreign = append(n.foreign, node)
}

// nodeID returns a node's id, the same in every network over its plane.
func (n *Network) nodeID(node Node) NodeID {
	switch v := node.(type) {
	case *Router:
		return v.rec().node
	case *Host:
		return v.rec().node
	}
	if n.Node(node.Name()) == nil {
		panic("netsim: node " + node.Name() + " is not registered")
	}
	return n.byName[node.Name()]
}

// Connect links two nodes with a bidirectional point-to-point link.
// addrA and addrB become the interface addresses on each side and delay
// applies in both directions. It returns the two interfaces.
func (n *Network) Connect(a, b Node, addrA, addrB netip.Addr, delay time.Duration) (*Iface, *Iface) {
	ia, ib := n.Link(n.nodeID(a), n.nodeID(b), addrA, addrB, delay)
	return n.iface(ia), n.iface(ib)
}

// Link is Connect by id, returning the interfaces' ids: what a generator
// wiring 10⁵ access links calls, so that no handle is made for them.
func (n *Network) Link(a, b NodeID, addrA, addrB netip.Addr, delay time.Duration) (IfaceID, IfaceID) {
	p := n.mutable()
	ia := IfaceID(len(p.ifaces))
	ib := ia + 1
	ka, _ := key4(addrA) // interface addresses are IPv4; anything else reads 0.0.0.0
	kb, _ := key4(addrB)
	p.ifaces = append(p.ifaces,
		ifaceRec{addr: ka, owner: p.nodes[a], peer: ib, faults: -1, delay: delay},
		ifaceRec{addr: kb, owner: p.nodes[b], peer: ia, faults: -1, delay: delay})
	n.attach(ia)
	n.attach(ib)
	return ia, ib
}

// attach tells its owner of a new interface. A host's first becomes its
// uplink. A router forgets its memo, and the plane's next layout files
// the interface in its tables: its local set, and a connected host route
// to the link peer, as real routers learn.
func (n *Network) attach(id IfaceID) {
	switch o := n.p.ifaces[id].owner; o.kind() {
	case kindHost:
		if h := &n.p.hosts[o.idx()]; h.uplink == NoIface {
			h.uplink = id
		}
	case kindRouter:
		n.rs[o.idx()].memo.reset()
	}
}
