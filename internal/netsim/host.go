package netsim

import (
	"encoding/binary"
	"net/netip"
	"time"

	"recordroute/internal/packet"
)

// HostBehavior configures an end host's responses to probes. The zero
// value is a silent host; DefaultHostBehavior returns a fully conformant
// responder.
type HostBehavior struct {
	// PingResponsive makes the host answer ICMP echo requests.
	PingResponsive bool
	// RRResponsive makes the host accept probe packets carrying IP
	// options; when false, such packets are silently dropped (host or
	// host-firewall options filtering).
	RRResponsive bool
	// CopyRROnReply copies a Record Route option from an echo request
	// into the echo reply, as RFC 1122 destinations do. Without it the
	// reply carries no option.
	CopyRROnReply bool
	// HonorRR makes the host stamp its own address into a Record Route
	// option (with free slots) when originating the reply — the behaviour
	// whose absence §3.3's ping-RRudp test detects.
	HonorRR bool
	// StampAddr, when valid, is recorded instead of the probed address:
	// the host stamps a different interface (an alias, §3.3's MIDAR case).
	StampAddr netip.Addr
	// UDPResponsive makes the host send ICMP port-unreachable errors for
	// UDP datagrams to closed ports, quoting the offending header.
	UDPResponsive bool
}

// DefaultHostBehavior returns the behaviour of a conformant, fully
// responsive destination.
func DefaultHostBehavior() HostBehavior {
	return HostBehavior{
		PingResponsive: true,
		RRResponsive:   true,
		CopyRROnReply:  true,
		HonorRR:        true,
		UDPResponsive:  true,
	}
}

// SnifferFunc observes packets delivered to a host. pkt is the raw
// datagram; the callee must not retain or modify it.
type SnifferFunc func(now time.Duration, pkt []byte)

// Host is the handle of an end system with a single uplink interface and
// one or more local addresses (extra ones model aliases). Hosts answer
// probes per their behaviour and can inject raw packets, as VPs do.
type Host struct {
	net *Network
	idx int32 // index in plane.hosts, AddHost order
}

// hostBits is HostBehavior without StampAddr, which hostRec keeps packed.
type hostBits struct{ ping, rr, copyRR, honorRR, udp bool }

// AddHost creates a host with the given primary address and registers it.
// Connect must be called to attach it before traffic flows; the first
// connected interface becomes the uplink.
func (n *Network) AddHost(name string, primary netip.Addr, behavior HostBehavior) *Host {
	return n.Host(n.AddHostNode(name, behavior, primary))
}

// AddHostNode is AddHost — and AddAlias for every valid further address
// — returning the node's id and making no handle.
func (n *Network) AddHostNode(name string, b HostBehavior, primary netip.Addr, aliases ...netip.Addr) NodeID {
	id := n.addNode(refOf(kindHost, len(n.p.hosts)), name)
	p := n.p
	h := hostRec{node: id, uplink: NoIface, addrOff: uint32(len(p.haddrs)), addrN: 1,
		b: hostBits{b.PingResponsive, b.RRResponsive, b.CopyRROnReply, b.HonorRR, b.UDPResponsive}}
	h.stamp, _ = key4(b.StampAddr)
	k, _ := key4(primary)
	p.haddrs = append(p.haddrs, k)
	for _, a := range aliases {
		if k, ok := key4(a); ok {
			p.haddrs = append(p.haddrs, k)
			h.addrN++
		}
	}
	p.hosts = append(p.hosts, h)
	n.snifSlot = append(n.snifSlot, 0)
	return id
}

func (h *Host) rec() *hostRec { return &h.net.p.hosts[h.idx] }

// Name returns the host's name.
func (h *Host) Name() string { return h.net.p.name(h.rec().node) }

// Addr returns the host's primary address.
func (h *Host) Addr() netip.Addr { return addrOf(h.net.p.addrs(h.rec())[0]) }

// Addrs returns all local addresses (primary first).
func (h *Host) Addrs() []netip.Addr {
	var out []netip.Addr
	for _, k := range h.net.p.addrs(h.rec()) {
		out = append(out, addrOf(k))
	}
	return out
}

// Behavior returns the host's configured behaviour.
func (h *Host) Behavior() HostBehavior {
	r := h.rec()
	b := HostBehavior{PingResponsive: r.b.ping, RRResponsive: r.b.rr, CopyRROnReply: r.b.copyRR,
		HonorRR: r.b.honorRR, UDPResponsive: r.b.udp}
	if r.stamp != 0 {
		b.StampAddr = addrOf(r.stamp)
	}
	return b
}

// AddAlias adds an extra local address, answered like the primary. The
// host's address run moves to the end of the table, if not there, to grow.
func (h *Host) AddAlias(a netip.Addr) {
	p := h.net.mutable()
	r := &p.hosts[h.idx]
	if run := p.addrs(r); int(r.addrOff)+len(run) != len(p.haddrs) {
		r.addrOff = uint32(len(p.haddrs))
		p.haddrs = append(p.haddrs, run...)
	}
	k, _ := key4(a)
	p.haddrs = append(p.haddrs, k)
	r.addrN++
}

// owns reports whether the packed address is one of the host's; hosts
// have one or two, so the scan beats a map.
func (p *plane) owns(h *hostRec, addr uint32) bool {
	for _, a := range p.addrs(h) {
		if a == addr {
			return true
		}
	}
	return false
}

// SetSniffer installs a callback observing every packet delivered to the
// host. Vantage points use this to collect probe responses.
func (h *Host) SetSniffer(fn SnifferFunc) {
	n := h.net
	if n.snifSlot[h.idx] == 0 {
		n.sniffers = append(n.sniffers, nil)
		n.snifSlot[h.idx] = int32(len(n.sniffers))
	}
	n.sniffers[n.snifSlot[h.idx]-1] = fn
}

func (n *Network) sniffer(hi int32) SnifferFunc {
	if s := n.snifSlot[hi]; s != 0 {
		return n.sniffers[s-1]
	}
	return nil
}

// Uplink returns the host's uplink interface, or nil if unconnected.
func (h *Host) Uplink() *Iface { return h.net.iface(h.rec().uplink) }

// Inject transmits a raw, already-serialized IPv4 datagram out the
// uplink, as a raw-socket prober would: pkt is copied into a pooled
// buffer and stays the caller's (adopting the caller's slice would grow
// the pool by one buffer per probe).
func (h *Host) Inject(pkt []byte) {
	n, r := h.net, h.rec()
	if r.uplink == NoIface {
		n.countName(r.node, "host.drop.unconnected")
		return
	}
	n.countAt(r.node, cHostInject)
	n.send(&n.p.ifaces[r.uplink], append(n.getBuf(), pkt...))
}

// Receive implements Node.
func (h *Host) Receive(pkt []byte, on *Iface) { h.net.hostReceive(h.idx, pkt) }

// hostReceive is a host's receive path; the datagram is decoded into
// n.ip, which the helpers below read.
func (n *Network) hostReceive(hi int32, pkt []byte) {
	h := &n.p.hosts[hi]
	payload, err := n.ip.Decode(pkt)
	if err != nil {
		n.countName(h.node, "host.drop.parse")
		return
	}
	if !n.p.owns(h, binary.BigEndian.Uint32(pkt[16:20])) {
		n.countAt(h.node, cHostDropMisdelivered)
		return
	}
	if fn := n.sniffer(hi); fn != nil {
		fn(n.Now(), pkt)
	}
	hasOpts := len(n.ip.Options) > 0
	if hasOpts && !h.b.rr {
		n.event(h.node, cHostDropOptions, pkt)
		return
	}
	// Hosts never forward: a source route with hops left is undeliverable.
	var sr packet.SourceRoute
	if found, err := n.ip.SourceRouteOption(&sr); found && (err != nil || !sr.Exhausted()) {
		n.countName(h.node, "host.drop.sourceroute")
		return
	}
	switch n.ip.Protocol {
	case packet.ProtocolICMP:
		n.hostReceiveICMP(h, pkt, payload)
	case packet.ProtocolUDP:
		n.hostReceiveUDP(h, pkt, payload)
	default:
		n.countName(h.node, "host.drop.proto")
	}
}

// hostReceiveICMP answers echo requests; other ICMP is sniffer-only.
func (n *Network) hostReceiveICMP(h *hostRec, raw, payload []byte) {
	var icmp packet.ICMP
	if icmp.Decode(payload) != nil {
		n.countName(h.node, "host.drop.icmpparse")
		return
	}
	if icmp.Type != packet.ICMPEchoRequest {
		return
	}
	if !h.b.ping {
		n.event(h.node, cHostDropUnresponsive, raw)
		return
	}
	reply := icmp.EchoReply()
	hdr := packet.IPv4{
		TTL:      64,
		ID:       n.ipid(h.node),
		Protocol: packet.ProtocolICMP,
		Src:      n.ip.Dst, // reply from the probed address
		Dst:      n.ip.Src,
		Options:  n.replyOpts[:0],
	}
	// The address the host records into options: the configured alias, or
	// the probed address.
	stamp := n.ip.Dst
	if h.stamp != 0 {
		stamp = addrOf(h.stamp)
	}
	// n.rr is a scratch copy of the request's option, so the reply's is
	// recorded and serialized in place.
	if found, err := n.ip.RecordRouteOption(&n.rr); found && err == nil && h.b.copyRR {
		if h.b.honorRR {
			n.rr.Record(stamp) // no-op when already full
		}
		opt, err := n.rr.AppendOption(n.replyOptData[:0])
		if err != nil {
			n.countName(h.node, "host.drop.rrencode")
			return
		}
		hdr.Options = append(hdr.Options, opt)
	}
	n.event(h.node, cHostEchoReply, raw)
	n.hostSend(h, &hdr, reply)
}

// hostReceiveUDP generates port-unreachable errors for closed ports. The
// quote is the datagram exactly as received — options included and
// unstamped, which is what makes the ping-RRudp reclassification test
// (§3.3) possible.
func (n *Network) hostReceiveUDP(h *hostRec, raw, payload []byte) {
	var udp packet.UDP
	if udp.Decode(payload, n.ip.Src, n.ip.Dst) != nil {
		n.countName(h.node, "host.drop.udpparse")
		return
	}
	if !h.b.udp {
		n.event(h.node, cHostDropUDPSilent, raw)
		return
	}
	e := packet.ICMP{
		Type:    packet.ICMPDestUnreach,
		Code:    packet.CodePortUnreachable,
		Payload: packet.ErrorQuote(raw, int(raw[0]&0xf)*4),
	}
	hdr := packet.IPv4{
		TTL:      64,
		ID:       n.ipid(h.node),
		Protocol: packet.ProtocolICMP,
		Src:      n.ip.Dst,
		Dst:      n.ip.Src,
	}
	n.event(h.node, cHostUDPUnreach, raw)
	n.hostSend(h, &hdr, &e)
}

// hostSend serializes a host-originated ICMP message into a pooled
// buffer and transmits it via the uplink.
func (n *Network) hostSend(h *hostRec, hdr *packet.IPv4, m *packet.ICMP) {
	if h.uplink == NoIface {
		n.countName(h.node, "host.drop.unconnected")
		return
	}
	out, err := hdr.AppendHeader(n.getBuf(), m.Len())
	if err != nil {
		n.countName(h.node, "host.drop.encode")
		return
	}
	n.send(&n.p.ifaces[h.uplink], m.AppendTo(out))
}
