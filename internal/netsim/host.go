package netsim

import (
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

// Host is an end system with a single uplink interface and one or more
// local addresses (extra addresses model aliases). Hosts answer probes
// according to their behaviour and can inject raw packets, which is how
// vantage points are modelled.
type Host struct {
	name     string
	net      *Network
	idx      int // registration index; replica clones keep it
	behavior HostBehavior
	uplink   *Iface
	addrs    []netip.Addr
	ipid     uint16
	sniffer  SnifferFunc

	// localShared marks addrs as part of a frozen route plane possibly
	// shared with replica networks; mutation copies first.
	localShared bool

	ip packet.IPv4
	rr packet.RecordRoute
	ts packet.Timestamp
}

// AddHost creates a host with the given primary address and registers it.
// Connect must be called to attach it before traffic flows; the first
// connected interface becomes the uplink.
func (n *Network) AddHost(name string, primary netip.Addr, behavior HostBehavior) *Host {
	h := &Host{
		name:     name,
		net:      n,
		behavior: behavior,
		addrs:    []netip.Addr{primary},
		ipid:     seedIPID(name),
	}
	n.register(h)
	return h
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Addr returns the host's primary address.
func (h *Host) Addr() netip.Addr { return h.addrs[0] }

// Addrs returns all local addresses (primary first).
func (h *Host) Addrs() []netip.Addr { return h.addrs }

// Behavior returns the host's configured behaviour.
func (h *Host) Behavior() HostBehavior { return h.behavior }

// AddAlias adds an extra local address; probes to it are answered like
// probes to the primary. On a host whose address set belongs to a
// frozen, shared route plane the set is copied first (copy-on-write).
func (h *Host) AddAlias(a netip.Addr) {
	if h.localShared {
		h.addrs = append([]netip.Addr(nil), h.addrs...)
		h.localShared = false
	}
	h.addrs = append(h.addrs, a)
}

// owns reports whether a is one of the host's addresses; hosts have one
// or two, so the scan beats a map.
func (h *Host) owns(a netip.Addr) bool {
	for _, x := range h.addrs {
		if x == a {
			return true
		}
	}
	return false
}

// SetSniffer installs a callback observing every packet delivered to the
// host. Vantage points use this to collect probe responses.
func (h *Host) SetSniffer(fn SnifferFunc) { h.sniffer = fn }

// Sniffer returns the currently installed sniffer (nil when none), so
// instrumentation such as pcap capture can chain rather than displace it.
func (h *Host) Sniffer() SnifferFunc { return h.sniffer }

// Uplink returns the host's uplink interface, or nil if unconnected.
func (h *Host) Uplink() *Iface { return h.uplink }

func (h *Host) addIface(i *Iface) {
	if h.uplink == nil {
		h.uplink = i
	}
}

// nextID returns the next IP identifier from the host's single shared
// counter (the alias-resolution signal).
func (h *Host) nextID() uint16 {
	h.ipid++
	return h.ipid
}

// count bumps a network counter and, when per-node attribution is
// enabled, charges it to this host.
func (h *Host) count(id int) {
	h.net.CountID(id, 1)
	if h.net.nodeCounts != nil {
		h.net.countNode(h.name, id, 1)
	}
}

// countName is count for cold paths that never pre-interned an ID (see
// Router.countName).
func (h *Host) countName(name string) { h.count(CounterID(name)) }

// trace emits a packet event for the datagram currently decoded in
// h.ip; callers guard on h.net.tracer != nil.
func (h *Host) trace(event string) {
	h.net.tracer(h.net.Now(), h.name, event, h.ip.Src, h.ip.Dst)
}

// Inject transmits a raw, already-serialized IPv4 datagram out the
// uplink, exactly as a raw-socket prober would: pkt is copied into a
// pooled buffer and stays the caller's. (Handing the caller's slice to
// Send would have the pool adopt one buffer per probe and grow for the
// life of the network; the copy keeps it sized by what is in flight.)
func (h *Host) Inject(pkt []byte) {
	if h.uplink == nil {
		h.countName("host.drop.unconnected")
		return
	}
	h.count(cHostInject)
	h.uplink.Send(append(h.net.getBuf(), pkt...))
}

// Receive implements Node.
func (h *Host) Receive(pkt []byte, on *Iface) {
	payload, err := h.ip.Decode(pkt)
	if err != nil {
		h.countName("host.drop.parse")
		return
	}
	if !h.owns(h.ip.Dst) {
		h.count(cHostDropMisdelivered)
		return
	}
	if h.sniffer != nil {
		h.sniffer(h.net.Now(), pkt)
	}
	hasOpts := len(h.ip.Options) > 0
	if hasOpts && !h.behavior.RRResponsive {
		h.count(cHostDropOptions)
		if h.net.tracer != nil {
			h.trace("host.drop.options")
		}
		return
	}
	// Hosts never forward: a source route with hops left is undeliverable.
	var sr packet.SourceRoute
	if found, err := h.ip.SourceRouteOption(&sr); found && (err != nil || !sr.Exhausted()) {
		h.countName("host.drop.sourceroute")
		return
	}
	switch h.ip.Protocol {
	case packet.ProtocolICMP:
		h.receiveICMP(payload)
	case packet.ProtocolUDP:
		h.receiveUDP(pkt, payload)
	default:
		h.countName("host.drop.proto")
	}
}

// receiveICMP answers echo requests; other ICMP is sniffer-only.
func (h *Host) receiveICMP(payload []byte) {
	var icmp packet.ICMP
	if icmp.Decode(payload) != nil {
		h.countName("host.drop.icmpparse")
		return
	}
	if icmp.Type != packet.ICMPEchoRequest {
		return
	}
	if !h.behavior.PingResponsive {
		h.count(cHostDropUnresponsive)
		if h.net.tracer != nil {
			h.trace("host.drop.unresponsive")
		}
		return
	}
	reply := icmp.EchoReply()
	hdr := packet.IPv4{
		TTL:      64,
		ID:       h.nextID(),
		Protocol: packet.ProtocolICMP,
		Src:      h.ip.Dst, // reply from the probed address
		Dst:      h.ip.Src,
		Options:  h.net.replyOpts[:0],
	}
	// h.rr and h.ts are scratch copies of the request's options, so the
	// reply's are recorded and serialized in place.
	if found, err := h.ip.RecordRouteOption(&h.rr); found && err == nil && h.behavior.CopyRROnReply {
		if h.behavior.HonorRR {
			h.rr.Record(h.stampAddr()) // no-op when already full
		}
		opt, err := h.rr.AppendOption(h.net.replyOptData[0][:0])
		if err != nil {
			h.countName("host.drop.rrencode")
			return
		}
		hdr.Options = append(hdr.Options, opt)
	}
	// Timestamp options are copied and completed under the same policy.
	if found, err := h.ip.TimestampOption(&h.ts); found && err == nil && h.behavior.CopyRROnReply {
		if h.behavior.HonorRR {
			h.ts.Record(h.stampAddr(), uint32(h.net.Now().Milliseconds()))
		}
		opt, err := h.ts.AppendOption(h.net.replyOptData[1][:0])
		if err != nil {
			h.countName("host.drop.tsencode")
			return
		}
		hdr.Options = append(hdr.Options, opt)
	}
	h.count(cHostEchoReply)
	if h.net.tracer != nil {
		h.trace("host.echo.reply")
	}
	h.send(&hdr, reply)
}

// stampAddr is the address the host records into options of the request
// in h.ip: the configured alias, or the probed address.
func (h *Host) stampAddr() netip.Addr {
	if h.behavior.StampAddr.IsValid() {
		return h.behavior.StampAddr
	}
	return h.ip.Dst
}

// receiveUDP generates port-unreachable errors for closed ports. The
// quote is the datagram exactly as received — options included and
// unstamped, which is what makes the ping-RRudp reclassification test
// (§3.3) possible.
func (h *Host) receiveUDP(raw, payload []byte) {
	var udp packet.UDP
	if udp.Decode(payload, h.ip.Src, h.ip.Dst) != nil {
		h.countName("host.drop.udpparse")
		return
	}
	if !h.behavior.UDPResponsive {
		h.count(cHostDropUDPSilent)
		if h.net.tracer != nil {
			h.trace("host.drop.udpsilent")
		}
		return
	}
	e := packet.ICMP{
		Type:    packet.ICMPDestUnreach,
		Code:    packet.CodePortUnreachable,
		Payload: packet.ErrorQuote(raw, int(raw[0]&0xf)*4),
	}
	hdr := packet.IPv4{
		TTL:      64,
		ID:       h.nextID(),
		Protocol: packet.ProtocolICMP,
		Src:      h.ip.Dst,
		Dst:      h.ip.Src,
	}
	h.count(cHostUDPUnreach)
	if h.net.tracer != nil {
		h.trace("host.udp.unreach")
	}
	h.send(&hdr, &e)
}

// send serializes a host-originated ICMP message into a pooled buffer
// and transmits it via the uplink.
func (h *Host) send(hdr *packet.IPv4, m *packet.ICMP) {
	if h.uplink == nil {
		h.countName("host.drop.unconnected")
		return
	}
	out, err := hdr.AppendHeader(h.net.getBuf(), m.Len())
	if err != nil {
		h.countName("host.drop.encode")
		return
	}
	h.uplink.Send(m.AppendTo(out))
}
