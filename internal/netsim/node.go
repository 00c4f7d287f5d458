package netsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"recordroute/internal/packet"
)

// Node is anything attachable to the network: a router or a host.
type Node interface {
	// Name returns the node's unique name within its Network.
	Name() string
	// Receive handles a serialized IPv4 datagram arriving on iface.
	Receive(pkt []byte, on *Iface)
	// addIface registers a new interface during Connect.
	addIface(i *Iface)
}

// Iface is one end of a point-to-point link.
type Iface struct {
	// Addr is the interface's IPv4 address.
	Addr netip.Addr
	// Owner is the node this interface belongs to.
	Owner Node

	// id is the interface's index in its network's registry, assigned in
	// Connect creation order. Replica networks cloned from a snapshot
	// reuse the same ids, which is how shared route-plane structures
	// (FIBs, oracle closures) holding source-network interface pointers
	// resolve to the clone's own interfaces — see Network.localize.
	id     int32
	a4     [4]byte // Addr in wire form, what routers stamp into options
	peer   *Iface
	delay  time.Duration
	loss   float64 // per-direction drop probability
	net    *Network
	faults *linkFaults // nil when no fault plan afflicts this direction
}

// Peer returns the interface at the other end of the link.
func (i *Iface) Peer() *Iface { return i.peer }

// SetLoss sets the probability that a packet transmitted from this
// interface is silently dropped (failure injection). Loss draws come
// from the network's deterministic RNG.
func (i *Iface) SetLoss(p float64) { i.loss = p }

// Send schedules pkt for delivery to the link peer after the link delay.
// Ownership of the buffer transfers to the network: it must not be
// modified or retained by the caller afterwards (it is recycled into the
// serialization pool once the receiver returns).
func (i *Iface) Send(pkt []byte) {
	if i.peer == nil {
		i.net.Count("drop.unconnected", 1)
		i.net.putBuf(pkt)
		return
	}
	if i.loss > 0 && i.net.lossDraw() < i.loss {
		i.net.CountID(cLinkLoss, 1)
		i.net.putBuf(pkt)
		return
	}
	delay := i.delay
	if f := i.faults; f != nil {
		if f.down.active(i.net.Now()) {
			i.net.CountID(cChaosLinkDown, 1)
			i.net.putBuf(pkt)
			return
		}
		if f.loss > 0 && chaosDraw(f.salt, chaosSaltLoss, pkt) < f.loss {
			i.net.CountID(cChaosLoss, 1)
			i.net.putBuf(pkt)
			return
		}
		if f.jitterMax > 0 {
			delay += time.Duration(chaosDraw(f.salt, chaosSaltJitter, pkt) * float64(f.jitterMax))
		}
		if f.dup > 0 && chaosDraw(f.salt, chaosSaltDup, pkt) < f.dup {
			cp := append(i.net.getBuf(), pkt...)
			i.net.CountID(cChaosDup, 1)
			i.net.engine.scheduleDelivery(delay+i.delay/2, cp, i.peer)
		}
	}
	i.net.CountID(cLinkTx, 1)
	i.net.engine.scheduleDelivery(delay, pkt, i.peer)
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

// wire4 returns a's four wire octets, or 0.0.0.0 for anything but IPv4
// (which no topology assigns to an interface).
func wire4(a netip.Addr) (b [4]byte) {
	if a = a.Unmap(); a.Is4() {
		b = a.As4()
	}
	return b
}

// seedIPID derives a device's initial IP-ID counter value from its name
// (FNV-1a), so distinct devices start far apart — as real, long-running
// devices do. Interfaces of one device share the counter; that shared
// monotonic sequence is what MIDAR-style alias resolution detects.
func seedIPID(name string) uint16 {
	var h uint32 = 2166136261
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return uint16(h>>16) ^ uint16(h)
}

// Network owns the engine, the nodes, and global counters.
type Network struct {
	engine   *Engine
	nodes    []Node
	byName   map[string]Node
	nameIdx  map[string]int // frozen name → nodes index, shared by clones
	ifaces   []*Iface       // registry in Connect order; index = Iface.id
	frozen   bool           // immutable route plane; see Freeze
	counters []uint64       // indexed by interned counter ID
	lossRNG  uint64         // xorshift state for deterministic loss draws
	// faultEpoch is the coarse virtual clock of a recurring campaign:
	// epoch-churned prefixes (FaultConfig.ChurnProb) are withdrawn or
	// present as a pure function of this value. It is overlay state —
	// clones inherit it from their snapshot source, and it never enters
	// the frozen route plane or the topology digest.
	faultEpoch int
	hook       func(at time.Duration, counter string)
	bufs       [][]byte // free list of serialization buffers
	bufSlab    []byte   // arena the free list's buffers are carved from

	// Scratch for the options of a reply being originated (an echoed
	// Record Route and Timestamp): one per network because the engine is
	// single-threaded and a reply is serialized before Receive returns.
	replyOpts    [2]packet.Option
	replyOptData [2][packet.MaxOptionsLen]byte

	// Observability hooks (see obs.go); both nil/off by default so the
	// per-packet paths pay only a nil check.
	tracer     TraceFunc
	nodeCounts map[string][]uint64 // node name → counters by ID
}

// bufCap is the capacity of pooled packet buffers: 128 bytes covers an
// IPv4 header, a 40-byte RR/TS option, and every payload the simulator
// generates. A packet that outgrows it reallocates out of the arena (the
// append in AppendTo copies to a fresh heap slice) and simply never
// returns to the pool — putBuf screens on capacity.
const bufCap = 128

// bufSlabSize is the arena growth quantum: 256 buffers (32 KiB) at a
// time, so the steady-state pool for a whole replica lives in a handful
// of large pointer-free allocations the GC scans in O(slabs), not
// O(packets in flight).
const bufSlabSize = 256 * bufCap

// getBuf returns an empty buffer for packet serialization, reusing a
// recycled one when available and carving a fresh one from the buffer
// arena otherwise. Buffers flow: getBuf → AppendTo → Iface.Send →
// delivery → putBuf. Receivers must never retain delivered packet bytes
// beyond Receive (the long-standing Send/sniffer contract), which is
// what makes the recycling safe.
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

// putBuf returns a packet buffer to the free list. Buffers that grew
// past bufCap escaped the arena on their growth append; recycling them
// anyway is fine — the pool tracks slices, not arena offsets.
func (n *Network) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	n.bufs = append(n.bufs, b[:0])
}

// lossSeed is the fixed initial xorshift state for link-loss draws;
// replicas cloned from a snapshot restart from it, exactly like a fresh
// build.
const lossSeed = 0x9e3779b97f4a7c15

// New returns an empty network with a fresh engine. Counters are
// preallocated to the interned-registry size (cache-line padded, see
// newCounters) so hot-path CountID never grows the slice and parallel
// shard replicas never share a counter cache line.
func New() *Network {
	return &Network{
		engine:   NewEngine(),
		byName:   make(map[string]Node),
		lossRNG:  lossSeed,
		counters: newCounters(),
	}
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
// draw fires (routerFaults.churned). Route memos of churn-afflicted
// routers are invalidated so lookups cached under the previous epoch
// never leak across the boundary. Campaigns set the epoch once, before
// any traffic; within an epoch churn is constant, which is what keeps
// renders byte-identical across shard counts and restarts.
func (n *Network) SetFaultEpoch(e int) {
	if e == n.faultEpoch {
		return
	}
	n.faultEpoch = e
	for _, node := range n.nodes {
		if r, ok := node.(*Router); ok && r.faults != nil && r.faults.churnPrefix.IsValid() {
			r.invalidateRoutes()
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

// CountID adds delta to the counter with the given interned ID.
func (n *Network) CountID(id int, delta uint64) {
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

// Node returns the named node, or nil. Clones resolve through the
// shared frozen name index instead of carrying their own map.
func (n *Network) Node(name string) Node {
	if n.byName != nil {
		return n.byName[name]
	}
	if i, ok := n.nameIdx[name]; ok {
		return n.nodes[i]
	}
	return nil
}

// NumNodes returns how many nodes have been added.
func (n *Network) NumNodes() int { return len(n.nodes) }

// register adds a node, panicking on duplicate names: topology
// construction bugs should fail loudly at build time, not mid-run.
func (n *Network) register(node Node) {
	if n.byName == nil {
		// A clone adding nodes materializes its own name map, seeded from
		// the shared frozen index it no longer matches.
		n.byName = make(map[string]Node, len(n.nodes)+1)
		for _, existing := range n.nodes {
			n.byName[existing.Name()] = existing
		}
	}
	if _, dup := n.byName[node.Name()]; dup {
		panic("netsim: duplicate node name " + node.Name())
	}
	switch v := node.(type) {
	case *Router:
		v.idx = len(n.nodes)
	case *Host:
		v.idx = len(n.nodes)
	}
	n.nodes = append(n.nodes, node)
	n.byName[node.Name()] = node
}

// localize maps an interface of a snapshot source network onto this
// network's replica of it: identity for nil and for this network's own
// interfaces, an id-indexed registry lookup for cloned planes. The
// address check lets hand-built interfaces that never joined a registry
// pass through untouched.
func (n *Network) localize(via *Iface) *Iface {
	if via == nil || via.net == n {
		return via
	}
	if int(via.id) < len(n.ifaces) {
		if l := n.ifaces[via.id]; l.Addr == via.Addr {
			return l
		}
	}
	return via
}

// Connect links two nodes with a bidirectional point-to-point link.
// addrA and addrB become the interface addresses on each side and delay
// applies in both directions. It returns the two interfaces.
func (n *Network) Connect(a, b Node, addrA, addrB netip.Addr, delay time.Duration) (*Iface, *Iface) {
	ia := &Iface{Addr: addrA, a4: wire4(addrA), Owner: a, delay: delay, net: n, id: int32(len(n.ifaces))}
	ib := &Iface{Addr: addrB, a4: wire4(addrB), Owner: b, delay: delay, net: n, id: int32(len(n.ifaces) + 1)}
	n.ifaces = append(n.ifaces, ia, ib)
	ia.peer, ib.peer = ib, ia
	a.addIface(ia)
	b.addIface(ib)
	// Routers learn connected host routes to their link peers, as real
	// routers do; everything else is the route computation's job.
	// AddRoute (not fib.Add) so the router's route cache is invalidated.
	if r, ok := a.(*Router); ok {
		r.AddRoute(netip.PrefixFrom(addrB, 32), ia)
	}
	if r, ok := b.(*Router); ok {
		r.AddRoute(netip.PrefixFrom(addrA, 32), ib)
	}
	return ia, ib
}
