package netsim

import (
	"encoding/binary"
	"net/netip"
	"time"

	"recordroute/internal/packet"
)

// RouterBehavior configures how a router treats packets, especially those
// carrying IP options. The zero value is a fully RFC-conformant router:
// it stamps Record Route, decrements TTL, sends Time Exceeded errors, and
// imposes no options rate limit.
type RouterBehavior struct {
	// NoStampRR forwards options packets without recording an address
	// (the RFC 7126 / BCP 186 "ignore" stance the paper's §3.5 hunts for).
	NoStampRR bool
	// DropOptions silently drops any packet carrying IP options
	// (AS-edge filtering).
	DropOptions bool
	// NoTTLDecrement makes the router invisible to traceroute: it
	// forwards without decrementing TTL (an "anonymous" router or an
	// MPLS tunnel interior hop). Such a router can still stamp RR.
	NoTTLDecrement bool
	// NoTimeExceeded drops expired packets silently instead of
	// generating ICMP Time Exceeded.
	NoTimeExceeded bool
	// OptionsRateLimit, if positive, is the packets-per-second budget of
	// the control-plane slow path that handles options packets;
	// non-conforming packets are dropped (CoPP-style policing).
	OptionsRateLimit float64
	// OptionsRateBurst is the policer's burst size; it defaults to the
	// rate (one second's worth) when zero.
	OptionsRateBurst float64
	// SlowPathDelay is extra per-packet forwarding latency applied to
	// options packets, modelling route-processor punting.
	SlowPathDelay time.Duration
	// ICMPErrorRateLimit, if positive, caps the router's ICMP error
	// generation (Time Exceeded and friends) in errors per second, as
	// real routers do; excess expirations are dropped silently.
	ICMPErrorRateLimit float64
	// AllowSourceRoute makes the router honor LSRR/SSRR options
	// addressed to it, forwarding to the next listed hop. Modern
	// routers refuse (RFC 7126 recommends dropping source-routed
	// packets), which is the default — and the reason the 2005 tech
	// report found source routing unusable while this paper finds
	// Record Route workable.
	AllowSourceRoute bool
}

// Router is a packet-forwarding node.
type Router struct {
	name       string
	net        *Network
	idx        int // registration index; replica clones keep it
	behavior   RouterBehavior
	fib        *FIB
	routeFn    func(dst netip.Addr) *Iface
	ifaces     []*Iface
	local      []uint32 // packed interface addresses; see ownsAddr
	limiter    *TokenBucket
	errLimiter *TokenBucket
	ipid       uint16
	faults     *routerFaults // nil when no fault plan afflicts this router

	// fibShared marks fib as part of a frozen route plane possibly shared
	// with replica networks (see Network.Freeze): mutation must copy
	// first. It clears on the first copy-on-write.
	fibShared bool

	// routeCache memoizes lookupRoute results per destination (including
	// negative ones): the routing oracle recomputes a policy path on
	// every packet, and forwarding asks the same question for every probe
	// of a campaign. Invalidated whenever the FIB or oracle changes.
	routeCache routeMemo
	// routeBase is the frozen, read-only memo inherited from a snapshot.
	// It is never written; invalidation just drops the reference.
	routeBase routeMemo

	// scratch decoding state for packets addressed to the router itself
	// (forwarded packets are never decoded); safe because the engine is
	// single-threaded.
	ip packet.IPv4
	rr packet.RecordRoute
	sr packet.SourceRoute
}

// routeCacheMax bounds the per-router cache; on overflow the cache is
// reset wholesale, which keeps memory proportional to the working set.
const routeCacheMax = 1 << 14

// AddRouter creates a router and registers it with the network.
func (n *Network) AddRouter(name string, behavior RouterBehavior) *Router {
	r := &Router{
		name:     name,
		net:      n,
		behavior: behavior,
		fib:      NewFIB(),
		ipid:     seedIPID(name),
	}
	n.register(r)
	return r
}

// optionsLimiter returns the slow-path policer, materializing it on
// first use. Policer state is copy-on-write across replica clones: the
// frozen plane carries only the behavior's rate config, and each
// network allocates its own mutable bucket the first time a policed
// packet arrives. Exact because a fresh bucket starts full and Allow's
// refill clamps at burst — a bucket born at virtual time t is
// indistinguishable from one born at time 0 and first consulted at t.
func (r *Router) optionsLimiter() *TokenBucket {
	if r.limiter == nil && r.behavior.OptionsRateLimit > 0 {
		burst := r.behavior.OptionsRateBurst
		if burst <= 0 {
			burst = r.behavior.OptionsRateLimit
		}
		r.limiter = NewTokenBucket(r.behavior.OptionsRateLimit, burst)
	}
	return r.limiter
}

// icmpErrLimiter is optionsLimiter for the ICMP-error policer.
func (r *Router) icmpErrLimiter() *TokenBucket {
	if r.errLimiter == nil && r.behavior.ICMPErrorRateLimit > 0 {
		r.errLimiter = NewTokenBucket(r.behavior.ICMPErrorRateLimit, r.behavior.ICMPErrorRateLimit/2)
	}
	return r.errLimiter
}

// Name returns the router's name.
func (r *Router) Name() string { return r.name }

// count bumps a network counter and, when per-node attribution is
// enabled, charges it to this router. The extra branch is the whole
// cost of disabled observability.
func (r *Router) count(id int) {
	r.net.CountID(id, 1)
	if r.net.nodeCounts != nil {
		r.net.countNode(r.name, id, 1)
	}
}

// countName is count for cold paths that never pre-interned an ID: it
// takes the process-global registry lock, so nothing a well-formed probe
// can reach may use it.
func (r *Router) countName(name string) { r.count(CounterID(name)) }

// trace emits a packet event for the serialized datagram pkt (at least
// its 20 fixed header octets); callers guard on r.net.tracer != nil.
func (r *Router) trace(event string, pkt []byte) {
	r.net.tracer(r.net.Now(), r.name, event,
		netip.AddrFrom4([4]byte(pkt[12:16])), netip.AddrFrom4([4]byte(pkt[16:20])))
}

// Behavior returns the router's configured behavior.
func (r *Router) Behavior() RouterBehavior { return r.behavior }

// FIB returns the router's forwarding table for route installation.
func (r *Router) FIB() *FIB { return r.fib }

// AddRoute installs a route for prefix via the given interface. On a
// router whose FIB belongs to a frozen, shared route plane the table is
// copied first (copy-on-write), so siblings cloned from the same
// snapshot never see the change.
func (r *Router) AddRoute(prefix netip.Prefix, via *Iface) {
	if r.fibShared {
		r.fib = r.fib.clone()
		r.fibShared = false
	}
	r.fib.Add(prefix, via)
	r.invalidateRoutes()
}

// SetRouteFunc installs a routing oracle consulted before the FIB.
// Large generated topologies use a shared oracle instead of populating
// millions of per-router FIB entries; fn returning nil falls back to the
// FIB (which still holds connected routes).
func (r *Router) SetRouteFunc(fn func(dst netip.Addr) *Iface) {
	r.routeFn = fn
	r.invalidateRoutes()
}

// invalidateRoutes drops all memoized lookups after a routing change.
// The shared frozen base (if any) is detached, never mutated: sibling
// replicas keep reading it.
func (r *Router) invalidateRoutes() {
	r.routeCache.reset()
	r.routeBase = routeMemo{}
}

// lookupRoute resolves the egress interface for dst via the oracle or
// FIB, memoizing the result (nil included: no route stays no route until
// routing changes). A replica cloned from a snapshot first consults the
// snapshot's frozen memo (routeBase).
func (r *Router) lookupRoute(dst netip.Addr) *Iface {
	k, ok := key4(dst)
	if !ok {
		return nil // nothing but IPv4 is ever routed
	}
	return r.lookupRoute4(k)
}

// lookupRoute4 is lookupRoute for a packed IPv4 destination, the form
// the forward path reads off the wire.
func (r *Router) lookupRoute4(dst uint32) *Iface {
	if f := r.faults; f != nil && f.withdraw.duty > 0 {
		// A transient withdrawal boundary invalidates memoized routes —
		// the same hook a real routing change uses — so cached entries
		// never straddle a withdrawal flip.
		if n := f.withdraw.flips(r.net.Now()); n != f.wFlips {
			f.wFlips = n
			r.invalidateRoutes()
			r.count(cChaosRouteFlip)
		}
	}
	if v := r.routeCache.get(dst); v != 0 {
		return r.net.memoIface(v)
	}
	v := r.routeBase.get(dst)
	if v == 0 {
		via := r.net.localize(r.lookupRouteSlow(addrOf(dst)))
		if v = r.net.memoValue(via); v == 0 {
			return via
		}
	}
	if r.routeCache.n >= routeCacheMax {
		r.routeCache.reset()
	}
	r.routeCache.put(dst, v)
	return r.net.memoIface(v)
}

// lookupRouteSlow is the uncached resolution path.
func (r *Router) lookupRouteSlow(dst netip.Addr) *Iface {
	if f := r.faults; f != nil {
		if f.prefix.IsValid() && f.prefix.Contains(dst) && f.withdraw.active(r.net.Now()) {
			return nil
		}
		// Epoch churn: the churned prefix is blackholed for the whole of
		// any epoch whose (seed, epoch) draw fires. Constant within an
		// epoch, so the memoized result stays valid until SetFaultEpoch.
		if f.churnPrefix.IsValid() && f.churnPrefix.Contains(dst) && f.churned(r.net.faultEpoch) {
			r.count(cChaosChurn)
			return nil
		}
	}
	if r.routeFn != nil {
		if via := r.routeFn(dst); via != nil {
			return via
		}
	}
	return r.fib.Lookup(dst)
}

// Interfaces returns the router's interfaces in attachment order.
func (r *Router) Interfaces() []*Iface { return r.ifaces }

// ownsAddr reports whether the packed address is one of the router's
// interface addresses. Routers have a handful of interfaces (median 3,
// 99th percentile 15 in generated topologies), so a scan of the packed
// slice beats hashing. The slice is plane state shared with replica
// clones, which hold it capped at its length: an append on either side
// reallocates or lands beyond what the other can see, never in it.
func (r *Router) ownsAddr(addr uint32) bool {
	for _, a := range r.local {
		if a == addr {
			return true
		}
	}
	return false
}

func (r *Router) addIface(i *Iface) {
	r.ifaces = append(r.ifaces, i)
	if k, ok := key4(i.Addr); ok {
		r.local = append(r.local, k)
	}
}

// nextID returns the next IP identifier from the router's shared
// counter. A shared monotonic counter across interfaces is the signal
// MIDAR-style alias resolution relies on.
func (r *Router) nextID() uint16 {
	r.ipid++
	return r.ipid
}

// Receive implements Node. It is the router's forwarding path, and it
// works on the datagram in wire form: the header is validated (checksum
// included) but never decoded into a struct, the received bytes are
// copied into a pooled buffer, and TTL, option slots and checksum are
// edited there. Only a packet addressed to the router itself is decoded,
// because answering it originates a new packet.
func (r *Router) Receive(pkt []byte, on *Iface) {
	if f := r.faults; f != nil && f.offline.active(r.net.Now()) {
		r.count(cChaosOffline)
		if r.net.tracer != nil {
			// The header is not validated yet; the event carries no addresses.
			r.net.tracer(r.net.Now(), r.name, "chaos.router.offline", netip.Addr{}, netip.Addr{})
		}
		return
	}
	w, err := packet.ParseWire(pkt)
	if err != nil {
		r.countName("router.drop.parse")
		return
	}
	hasOpts := w.HasOptions()

	// Options packets traverse the slow path: filtering and policing
	// happen before any other processing, including local delivery.
	if hasOpts {
		if r.behavior.DropOptions {
			r.count(cRouterDropFilter)
			if r.net.tracer != nil {
				r.trace("router.drop.filter", pkt)
			}
			return
		}
		if lim := r.optionsLimiter(); lim != nil && !lim.Allow(r.net.Now()) {
			r.count(cRouterDropRatelimit)
			if r.net.tracer != nil {
				r.trace("router.drop.ratelimit", pkt)
			}
			return
		}
		r.count(cRouterSlowpath)
		if r.net.tracer != nil {
			r.trace("router.slowpath", pkt)
		}
	}

	dst := binary.BigEndian.Uint32(pkt[16:20])
	if r.ownsAddr(dst) {
		payload, err := r.ip.Decode(pkt)
		if err != nil {
			// Unreachable: ParseWire accepts exactly what Decode accepts.
			r.countName("router.drop.parse")
			return
		}
		if found, err := r.ip.SourceRouteOption(&r.sr); found && err == nil && !r.sr.Exhausted() {
			r.forwardSourceRouted(payload)
			return
		}
		r.deliverLocal(payload)
		return
	}

	// TTL handling. An "anonymous" router forwards without decrementing.
	if !r.behavior.NoTTLDecrement && pkt[8] <= 1 {
		if !r.behavior.NoTimeExceeded {
			r.sendTimeExceeded(pkt, on)
		} else {
			r.countName("router.drop.ttl.silent")
		}
		r.count(cRouterTTLExpired)
		if r.net.tracer != nil {
			r.trace("router.ttl.expired", pkt)
		}
		return
	}

	egress := r.lookupRoute4(dst)
	if egress == nil {
		r.count(cRouterDropNoRoute)
		if r.net.tracer != nil {
			r.trace("router.drop.noroute", pkt)
		}
		return
	}

	out, hdrLen := w.AppendTo(r.net.getBuf(), pkt)
	if !r.behavior.NoTTLDecrement {
		out[8]--
	}
	// Stamp Record Route with the outgoing interface address (RFC 791:
	// "its own internet address as known in the environment into which
	// this datagram is being forwarded"). An option that is full or
	// malformed travels on untouched.
	if hasOpts && !r.behavior.NoStampRR {
		if w.RR != 0 && packet.StampRecordRoute(out[w.RR:hdrLen], egress.a4) {
			r.count(cRouterStamped)
			if r.net.tracer != nil {
				r.trace("router.rr.stamped", pkt)
			}
		}
		// The Internet Timestamp option is processed on the same slow
		// path; a full option increments its overflow counter.
		if w.TS != 0 && packet.StampTimestamp(out[w.TS:hdrLen], egress.a4, uint32(r.net.Now().Milliseconds())) {
			r.count(cRouterTS)
			if r.net.tracer != nil {
				r.trace("router.ts.stamped", pkt)
			}
		}
	}
	packet.SetHeaderChecksum(out[:hdrLen])
	r.count(cRouterFwd)
	if hasOpts && r.behavior.SlowPathDelay > 0 {
		r.net.engine.Schedule(r.behavior.SlowPathDelay, func() { egress.Send(out) })
		return
	}
	egress.Send(out)
}

// forwardSourceRouted handles a source-routed packet whose current
// destination is this router: if the router honors source routing it
// swaps in the next listed hop (recording its own outgoing address in
// the slot, per RFC 791) and forwards; otherwise the packet is dropped,
// the near-universal stance on today's Internet.
func (r *Router) forwardSourceRouted(payload []byte) {
	if !r.behavior.AllowSourceRoute {
		r.countName("router.drop.sourceroute")
		return
	}
	next := r.sr.NextHop()
	egress := r.lookupRoute(next)
	if egress == nil {
		r.count(cRouterDropNoRoute)
		return
	}
	newDst, ok := r.sr.Advance(egress.Addr)
	if !ok {
		r.countName("router.drop.sourceroute")
		return
	}
	r.ip.Dst = newDst
	if err := r.ip.SetSourceRoute(&r.sr); err != nil {
		r.countName("router.drop.encode")
		return
	}
	if !r.behavior.NoTTLDecrement && r.ip.TTL > 1 {
		r.ip.TTL--
	}
	out, err := r.ip.AppendTo(r.net.getBuf(), payload)
	if err != nil {
		r.countName("router.drop.encode")
		return
	}
	r.countName("router.fwd.sourceroute")
	egress.Send(out)
}

// deliverLocal handles packets addressed to the router itself (r.ip
// holds the already-decoded header). Routers answer ICMP echo (including
// ping-RR, stamping themselves and copying the option into the reply) so
// that they can serve as probe targets and alias-resolution subjects.
func (r *Router) deliverLocal(payload []byte) {
	var icmp packet.ICMP
	if r.ip.Protocol != packet.ProtocolICMP || icmp.Decode(payload) != nil {
		r.countName("router.local.ignored")
		return
	}
	if icmp.Type != packet.ICMPEchoRequest {
		r.countName("router.local.ignored")
		return
	}
	reply := icmp.EchoReply()
	hdr := packet.IPv4{
		TTL:      64,
		ID:       r.nextID(),
		Protocol: packet.ProtocolICMP,
		Src:      r.ip.Dst,
		Dst:      r.ip.Src,
	}
	// Copy the Record Route option into the reply and stamp ourselves,
	// as a conformant destination does (r.rr is a scratch copy of the
	// request's option, recorded and serialized in place).
	if found, err := r.ip.RecordRouteOption(&r.rr); found && err == nil {
		if !r.behavior.NoStampRR {
			r.rr.Record(r.ip.Dst)
		}
		opt, err := r.rr.AppendOption(r.net.replyOptData[0][:0])
		if err != nil {
			return
		}
		hdr.Options = append(r.net.replyOpts[:0], opt)
	}
	if r.net.tracer != nil {
		r.net.tracer(r.net.Now(), r.name, "router.echo.reply", r.ip.Src, r.ip.Dst)
	}
	r.sendLocal(&hdr, reply)
}

// sendTimeExceeded emits an ICMP Time Exceeded error quoting the expired
// packet orig as received (its Record Route option included, which is what
// lets TTL-limited ping-RR results be read at the source, §4.2).
// Generation is subject to the router's ICMP error policer.
func (r *Router) sendTimeExceeded(orig []byte, on *Iface) {
	if f := r.faults; f != nil && f.suppress.active(r.net.Now()) {
		r.count(cChaosSuppress)
		if r.net.tracer != nil {
			r.trace("chaos.icmp.suppressed", orig)
		}
		return
	}
	if lim := r.icmpErrLimiter(); lim != nil && !lim.Allow(r.net.Now()) {
		r.count(cRouterDropErrlimit)
		if r.net.tracer != nil {
			r.trace("router.drop.errlimit", orig)
		}
		return
	}
	e := packet.ICMP{
		Type:    packet.ICMPTimeExceeded,
		Code:    packet.CodeTTLExceeded,
		Payload: packet.ErrorQuote(orig, int(orig[0]&0xf)*4),
	}
	hdr := packet.IPv4{
		TTL:      64,
		ID:       r.nextID(),
		Protocol: packet.ProtocolICMP,
		Src:      on.Addr, // errors originate from the receiving interface
		Dst:      netip.AddrFrom4([4]byte(orig[12:16])),
	}
	r.count(cRouterTimeExceeded)
	if r.net.tracer != nil {
		r.trace("router.icmp.timeexceeded", orig)
	}
	r.sendLocal(&hdr, &e)
}

// sendLocal routes a router-originated ICMP message, serializes it into
// a pooled buffer and transmits it.
func (r *Router) sendLocal(hdr *packet.IPv4, m *packet.ICMP) {
	egress := r.lookupRoute(hdr.Dst)
	if egress == nil {
		r.countName("router.drop.noroute.local")
		return
	}
	out, err := hdr.AppendHeader(r.net.getBuf(), m.Len())
	if err != nil {
		r.countName("router.drop.encode")
		return
	}
	egress.Send(m.AppendTo(out))
}
