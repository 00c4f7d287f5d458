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

// Router is the handle of a packet-forwarding node.
type Router struct {
	net *Network
	idx int32 // index in plane.routers, AddRouter order
}

// routeCacheMax bounds a router's memo; on overflow it is emptied
// wholesale, which keeps memory proportional to the working set.
const routeCacheMax = 1 << 14

// AddRouter creates a router and registers it with the network.
func (n *Network) AddRouter(name string, behavior RouterBehavior) *Router {
	n.AddRouterNode(name, behavior)
	return n.Routers()[len(n.p.routers)-1]
}

// AddRouterNode is AddRouter returning the node's id, making no handle.
func (n *Network) AddRouterNode(name string, behavior RouterBehavior) NodeID {
	id := n.addNode(refOf(kindRouter, len(n.p.routers)), name)
	n.p.routers = append(n.p.routers, routerRec{node: id, faults: -1, behavior: behavior})
	n.rs = append(n.rs, routerState{})
	return id
}

// rec returns the router's record, every interface linked so far filed
// in its tables (plane.layout).
func (r *Router) rec() *routerRec {
	r.net.p.layout()
	return &r.net.p.routers[r.idx]
}

// optionsLimiter returns the router's slow-path policer, nil for none.
func (n *Network) optionsLimiter(ri int32) *TokenBucket {
	b := &n.p.routers[ri].behavior
	return policer(&n.rs[ri].limiter, b.OptionsRateLimit, b.OptionsRateBurst)
}

// policer returns the bucket in slot, making it on first use when rate is
// positive (see routerState); a burst of zero means one second's worth.
func policer(slot **TokenBucket, rate, burst float64) *TokenBucket {
	if *slot == nil && rate > 0 {
		if burst <= 0 {
			burst = rate
		}
		*slot = NewTokenBucket(rate, burst)
	}
	return *slot
}

// Name returns the router's name.
func (r *Router) Name() string { return r.net.p.name(r.rec().node) }

// countAt bumps a network counter and, when per-node attribution is on,
// charges it to the node: one branch is what disabled observability costs.
func (n *Network) countAt(node NodeID, id int) {
	n.CountID(id, 1)
	if n.nodeCounts != nil {
		n.countNode(node, id, 1)
	}
}

// countName is countAt for cold paths that never pre-interned an ID: it
// takes the process-global registry lock, so nothing a well-formed probe
// can reach may use it.
func (n *Network) countName(node NodeID, name string) { n.countAt(node, CounterID(name)) }

// event counts a per-packet verdict at node and, when tracing, emits it
// under the counter's name for the datagram pkt (20 header octets at least).
func (n *Network) event(node NodeID, id int, pkt []byte) {
	n.countAt(node, id)
	if n.tracer != nil {
		n.tracer(n.Now(), n.nodeName(node), counterName(id),
			netip.AddrFrom4([4]byte(pkt[12:16])), netip.AddrFrom4([4]byte(pkt[16:20])))
	}
}

// Behavior returns the router's configured behavior.
func (r *Router) Behavior() RouterBehavior { return r.rec().behavior }

// FIB returns the router's forwarding table: plane state, the same table
// in every replica of a snapshot until one changes its plane. Install
// routes with AddRoute, which keeps memos honest.
func (r *Router) FIB() *FIB { return &r.rec().fib }

// AddRoute installs a route for prefix via the given interface.
func (r *Router) AddRoute(prefix netip.Prefix, via *Iface) {
	r.net.mutable()
	r.rec().fib.Add(prefix, via.id)
	r.net.rs[r.idx].memo.reset()
}

// SetRouteFunc installs a routing oracle every router consults before
// its FIB. Generated topologies use one instead of populating millions
// of FIB entries; the FIBs still hold connected routes.
func (n *Network) SetRouteFunc(fn RouteFunc) {
	n.mutable().oracle = fn
	for i := range n.rs {
		n.rs[i].memo.reset()
	}
}

// lookupRoute resolves the egress interface at router ri for dst via the
// oracle or FIB, memoizing the result (NoIface included: no route stays
// no route until routing changes).
func (n *Network) lookupRoute(ri int32, dst netip.Addr) IfaceID {
	k, ok := key4(dst)
	if !ok {
		return NoIface // nothing but IPv4 is ever routed
	}
	return n.lookupRoute4(ri, k)
}

// lookupRoute4 is lookupRoute for a packed destination, as read off the
// wire. A wide answer is memoized for dst's /16, any other for dst, and
// the router's own /16 (in a generated topology its AS, never wide) by
// address only: only a remote destination is looked up by block.
func (n *Network) lookupRoute4(ri int32, dst uint32) IfaceID {
	rec, st := &n.p.routers[ri], &n.rs[ri]
	if rec.faults >= 0 {
		// A transient withdrawal boundary empties the memo — as a real
		// routing change does — so cached entries never straddle a flip.
		if w := n.p.routerFaults[rec.faults].withdraw; w.duty > 0 {
			if flips := w.flips(n.Now()); flips != st.wFlips {
				st.wFlips = flips
				st.memo.reset()
				n.countAt(rec.node, cChaosRouteFlip)
			}
		}
	}
	remote := len(rec.local) == 0 || rec.local[0]>>16 != dst>>16
	if remote {
		if v := st.memo.get(dst>>16, byBlock); v != 0 {
			return IfaceID(v - memoBase)
		}
	}
	if v := st.memo.get(dst, byAddr); v != 0 {
		return IfaceID(v - memoBase)
	}
	via, wide := n.lookupRouteSlow(ri, dst)
	if st.memo.n >= routeCacheMax {
		st.memo.reset()
	}
	key, sp := dst, byAddr
	if wide && remote {
		key, sp = dst>>16, byBlock
	}
	st.memo.put(key, sp, int32(via)+memoBase)
	return via
}

// lookupRouteSlow is the uncached resolution path. The answer is wide if
// the oracle says so and the router has no per-prefix fault.
func (n *Network) lookupRouteSlow(ri int32, dst uint32) (via IfaceID, wide bool) {
	rec := &n.p.routers[ri]
	prefixFault := false
	if rec.faults >= 0 {
		f := &n.p.routerFaults[rec.faults]
		prefixFault = f.prefix.IsValid() || f.churnPrefix.IsValid()
		if f.prefix.IsValid() && f.prefix.Contains(addrOf(dst)) && f.withdraw.active(n.Now()) {
			return NoIface, false
		}
		// Epoch churn: the churned prefix is blackholed for the whole of
		// any epoch whose (seed, epoch) draw fires. Constant within an
		// epoch, so the memoized result stays valid until SetFaultEpoch.
		if f.churnPrefix.IsValid() && f.churnPrefix.Contains(addrOf(dst)) && f.churned(n.faultEpoch) {
			n.countAt(rec.node, cChaosChurn)
			return NoIface, false
		}
	}
	if n.p.oracle != nil {
		if via, wide := n.p.oracle(int(ri), dst); via != NoIface {
			return via, wide && !prefixFault
		}
	}
	return rec.fib.lookup4(dst), false
}

// Interfaces returns the router's interfaces in attachment order.
func (r *Router) Interfaces() []*Iface {
	ids := r.rec().ifaces
	out := make([]*Iface, len(ids))
	for i, id := range ids {
		out[i] = r.net.iface(id)
	}
	return out
}

// ownsAddr reports whether the packed address is one of the router's.
// Routers have a handful of interfaces (median 3, 99th percentile 15 in
// generated topologies), so a scan of the packed slice beats hashing.
func (rec *routerRec) ownsAddr(addr uint32) bool {
	for _, a := range rec.local {
		if a == addr {
			return true
		}
	}
	return false
}

// ipid returns the IP identifier node stamps on a packet it originates
// now (ipidAt).
func (n *Network) ipid(node NodeID) uint16 { return ipidAt(n.p.nameBytes(node), n.Now()) }

// Receive implements Node. pkt stays the caller's: the router works on
// a pooled copy.
func (r *Router) Receive(pkt []byte, on *Iface) {
	if b := append(r.net.getBuf(), pkt...); !r.net.routerReceive(r.idx, b, on.id) {
		r.net.putBuf(b)
	}
}

// routerReceive is the router's forwarding path, and it works on the
// datagram in wire form: the header is validated (checksum included) but
// never decoded, and TTL, option slots and checksum are edited in pkt, a
// pooled buffer, which is then sent on; kept reports that it was, else
// the caller recycles it. Only a packet addressed to the router itself
// is decoded: answering it originates a new packet.
func (n *Network) routerReceive(ri int32, pkt []byte, on IfaceID) (kept bool) {
	p := n.p
	if p.laid != len(p.ifaces) {
		p.layout() // a network wired since it last forwarded
	}
	rec := &p.routers[ri]
	if rec.faults >= 0 && p.routerFaults[rec.faults].offline.active(n.Now()) {
		n.countAt(rec.node, cChaosOffline)
		if n.tracer != nil {
			// The header is not validated yet; the event carries no addresses.
			n.tracer(n.Now(), n.nodeName(rec.node), "chaos.router.offline", netip.Addr{}, netip.Addr{})
		}
		return false
	}
	w, err := packet.ParseWire(pkt)
	if err != nil {
		n.countName(rec.node, "router.drop.parse")
		return false
	}
	hasOpts := w.HasOptions()
	b := &rec.behavior

	// Options packets traverse the slow path: filtering and policing
	// happen before any other processing, including local delivery.
	if hasOpts {
		if b.DropOptions {
			n.event(rec.node, cRouterDropFilter, pkt)
			return false
		}
		if lim := n.optionsLimiter(ri); lim != nil && !lim.Allow(n.Now()) {
			n.event(rec.node, cRouterDropRatelimit, pkt)
			return false
		}
		n.event(rec.node, cRouterSlowpath, pkt)
	}

	dst := binary.BigEndian.Uint32(pkt[16:20])
	if rec.ownsAddr(dst) {
		payload, err := n.ip.Decode(pkt)
		if err != nil {
			// Unreachable: ParseWire accepts exactly what Decode accepts.
			n.countName(rec.node, "router.drop.parse")
			return false
		}
		if found, err := n.ip.SourceRouteOption(&n.sr); found && err == nil && !n.sr.Exhausted() {
			n.forwardSourceRouted(ri, payload)
			return false
		}
		n.deliverLocal(ri, payload)
		return false
	}

	// TTL handling. An "anonymous" router forwards without decrementing.
	if !b.NoTTLDecrement && pkt[8] <= 1 {
		if !b.NoTimeExceeded {
			n.sendTimeExceeded(ri, pkt, on)
		} else {
			n.countName(rec.node, "router.drop.ttl.silent")
		}
		n.event(rec.node, cRouterTTLExpired, pkt)
		return false
	}

	via := n.lookupRoute4(ri, dst)
	if via == NoIface {
		n.event(rec.node, cRouterDropNoRoute, pkt)
		return false
	}
	egress := &p.ifaces[via]

	pkt = w.Canonicalize(pkt)
	hdr := pkt[:w.HdrLen]
	if !b.NoTTLDecrement {
		packet.DecrementTTL(hdr)
	}
	// Stamp Record Route with the outgoing interface address (RFC 791:
	// "its own internet address as known in the environment into which
	// this datagram is being forwarded"). An option that is full or
	// malformed travels on untouched.
	if hasOpts && !b.NoStampRR && w.RR != 0 && packet.StampRecordRoute(hdr, w.RR, egress.addr) {
		n.event(rec.node, cRouterStamped, pkt)
	}
	n.countAt(rec.node, cRouterFwd)
	if hasOpts && b.SlowPathDelay > 0 {
		n.engine.Schedule(b.SlowPathDelay, func() { n.send(egress, pkt) })
		return true
	}
	n.send(egress, pkt)
	return true
}

// forwardSourceRouted handles a source-routed packet (decoded in n.ip and
// n.sr) whose current destination is this router: if the router honors
// source routing it swaps in the next listed hop (recording its own
// outgoing address in the slot, per RFC 791) and forwards; otherwise the
// packet is dropped, the near-universal stance on today's Internet.
func (n *Network) forwardSourceRouted(ri int32, payload []byte) {
	rec := &n.p.routers[ri]
	if !rec.behavior.AllowSourceRoute {
		n.countName(rec.node, "router.drop.sourceroute")
		return
	}
	via := n.lookupRoute(ri, n.sr.NextHop())
	if via == NoIface {
		n.countAt(rec.node, cRouterDropNoRoute)
		return
	}
	egress := &n.p.ifaces[via]
	newDst, ok := n.sr.Advance(addrOf(egress.addr))
	if !ok {
		n.countName(rec.node, "router.drop.sourceroute")
		return
	}
	n.ip.Dst = newDst
	if err := n.ip.SetSourceRoute(&n.sr); err != nil {
		n.countName(rec.node, "router.drop.encode")
		return
	}
	if !rec.behavior.NoTTLDecrement && n.ip.TTL > 1 {
		n.ip.TTL--
	}
	out, err := n.ip.AppendTo(n.getBuf(), payload)
	if err != nil {
		n.countName(rec.node, "router.drop.encode")
		return
	}
	n.countName(rec.node, "router.fwd.sourceroute")
	n.send(egress, out)
}

// deliverLocal handles packets addressed to the router itself (n.ip
// holds the already-decoded header). Routers answer ICMP echo (including
// ping-RR, stamping themselves and copying the option into the reply) so
// that they can serve as probe targets and alias-resolution subjects.
func (n *Network) deliverLocal(ri int32, payload []byte) {
	rec := &n.p.routers[ri]
	var icmp packet.ICMP
	if n.ip.Protocol != packet.ProtocolICMP || icmp.Decode(payload) != nil || icmp.Type != packet.ICMPEchoRequest {
		n.countName(rec.node, "router.local.ignored")
		return
	}
	reply := icmp.EchoReply()
	hdr := packet.IPv4{
		TTL:      64,
		ID:       n.ipid(rec.node),
		Protocol: packet.ProtocolICMP,
		Src:      n.ip.Dst,
		Dst:      n.ip.Src,
	}
	// Copy the Record Route option into the reply and stamp ourselves,
	// as a conformant destination does (n.rr is a scratch copy of the
	// request's option, recorded and serialized in place).
	if found, err := n.ip.RecordRouteOption(&n.rr); found && err == nil {
		if !rec.behavior.NoStampRR {
			n.rr.Record(n.ip.Dst)
		}
		opt, err := n.rr.AppendOption(n.replyOptData[:0])
		if err != nil {
			return
		}
		hdr.Options = append(n.replyOpts[:0], opt)
	}
	if n.tracer != nil {
		n.tracer(n.Now(), n.nodeName(rec.node), "router.echo.reply", n.ip.Src, n.ip.Dst)
	}
	n.sendLocal(ri, &hdr, reply)
}

// sendTimeExceeded emits an ICMP Time Exceeded error quoting the expired
// packet orig as received (its Record Route option included, which is what
// lets TTL-limited ping-RR results be read at the source, §4.2).
// Generation is subject to the router's ICMP error policer.
func (n *Network) sendTimeExceeded(ri int32, orig []byte, on IfaceID) {
	rec := &n.p.routers[ri]
	if rec.faults >= 0 && n.p.routerFaults[rec.faults].suppress.active(n.Now()) {
		n.event(rec.node, cChaosSuppress, orig)
		return
	}
	rate := rec.behavior.ICMPErrorRateLimit
	if lim := policer(&n.rs[ri].errLimiter, rate, rate/2); lim != nil && !lim.Allow(n.Now()) {
		n.event(rec.node, cRouterDropErrlimit, orig)
		return
	}
	e := packet.ICMP{
		Type:    packet.ICMPTimeExceeded,
		Code:    packet.CodeTTLExceeded,
		Payload: packet.ErrorQuote(orig, int(orig[0]&0xf)*4),
	}
	hdr := packet.IPv4{
		TTL:      64,
		ID:       n.ipid(rec.node),
		Protocol: packet.ProtocolICMP,
		Src:      addrOf(n.p.ifaces[on].addr), // errors originate from the receiving interface
		Dst:      netip.AddrFrom4([4]byte(orig[12:16])),
	}
	n.event(rec.node, cRouterTimeExceeded, orig)
	n.sendLocal(ri, &hdr, &e)
}

// sendLocal routes a router-originated ICMP message, serializes it into
// a pooled buffer and transmits it.
func (n *Network) sendLocal(ri int32, hdr *packet.IPv4, m *packet.ICMP) {
	egress := n.lookupRoute(ri, hdr.Dst)
	if egress == NoIface {
		n.countName(n.p.routers[ri].node, "router.drop.noroute.local")
		return
	}
	out, err := hdr.AppendHeader(n.getBuf(), m.Len())
	if err != nil {
		n.countName(n.p.routers[ri].node, "router.drop.encode")
		return
	}
	n.send(&n.p.ifaces[egress], m.AppendTo(out))
}
