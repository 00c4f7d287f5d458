package netsim

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"
	"time"

	"recordroute/internal/packet"
)

func TestHostDropsMisdeliveredPacket(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	// A packet for an address the dest host does not own, smuggled by
	// adding a bogus /32 route at the last router.
	bogus := a("10.2.0.99")
	last := c.routers[len(c.routers)-1]
	last.AddRoute(netip.PrefixFrom(bogus, 32), egressTo(last, a(destAddrStr)))
	for _, r := range c.routers {
		r.AddRoute(netip.PrefixFrom(bogus, 32), egressTo(r, a(destAddrStr)))
	}
	c.vp.Inject(makePingRR(t, a(vpAddrStr), bogus, 1, 1, 64, 0))
	c.net.Engine().Run()
	if got := c.net.Counter("host.drop.misdelivered"); got != 1 {
		t.Errorf("misdelivered drops = %d, want 1", got)
	}
	if len(c.replies) != 0 {
		t.Errorf("replies = %d", len(c.replies))
	}
}

func TestRouterDropsGarbage(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	c.vp.Inject([]byte{0xde, 0xad, 0xbe, 0xef})
	c.net.Engine().Run()
	if got := c.net.Counter("router.drop.parse"); got != 1 {
		t.Errorf("parse drops = %d, want 1", got)
	}
}

func TestRouterNoRouteCounter(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	// An address no router has a route for.
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a("203.0.113.7"), 1, 1, 64, 0))
	c.net.Engine().Run()
	if got := c.net.Counter("router.drop.noroute"); got != 1 {
		t.Errorf("noroute drops = %d, want 1", got)
	}
}

func TestUnconnectedHostCountsDrops(t *testing.T) {
	n := New()
	h := n.AddHost("loner", a("10.0.0.1"), DefaultHostBehavior())
	h.Inject([]byte{1, 2, 3})
	n.Engine().Run()
	if got := n.Counter("host.drop.unconnected"); got != 1 {
		t.Errorf("unconnected drops = %d", got)
	}
}

func TestRouterIgnoresNonEchoLocal(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	// A UDP datagram addressed to a router is ignored (routers only
	// answer echo here), not forwarded or crashed on.
	hdr := packet.IPv4{TTL: 8, Protocol: packet.ProtocolUDP, Src: a(vpAddrStr), Dst: c.inAddrs[0]}
	u := packet.UDP{SrcPort: 9, DstPort: 9}
	transport, err := u.Marshal(a(vpAddrStr), c.inAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	wire, err := hdr.Marshal(transport)
	if err != nil {
		t.Fatal(err)
	}
	c.vp.Inject(wire)
	c.net.Engine().Run()
	if got := c.net.Counter("router.local.ignored"); got != 1 {
		t.Errorf("local.ignored = %d, want 1", got)
	}
}

func TestEchoReplyToHostIsSnifferOnly(t *testing.T) {
	// An unsolicited echo REPLY delivered to a host must be observed by
	// the sniffer but trigger no reply (no ping-pong storms).
	c := buildChain(2, nil, DefaultHostBehavior())
	hdr := packet.IPv4{TTL: 8, Protocol: packet.ProtocolICMP, Src: a(vpAddrStr), Dst: a(destAddrStr)}
	reply := &packet.ICMP{Type: packet.ICMPEchoReply, ID: 1, Seq: 1}
	wire, err := hdr.Marshal(reply.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	c.vp.Inject(wire)
	c.net.Engine().Run()
	if got := c.net.Counter("host.echo.reply"); got != 0 {
		t.Errorf("host replied to an echo reply: %d", got)
	}
	if len(c.replies) != 0 {
		t.Errorf("VP received %d packets", len(c.replies))
	}
}

func TestSlowPathDelayAppliesToOptionsOnly(t *testing.T) {
	c := buildChain(1, func(int) RouterBehavior {
		return RouterBehavior{SlowPathDelay: 100 * time.Millisecond}
	}, DefaultHostBehavior())
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 1, 1, 64, 0)) // plain
	c.net.Engine().Run()
	plainAt := c.replies[0].at
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 2, 1, 64, 9)) // options
	c.net.Engine().Run()
	optAt := c.replies[1].at - plainAt
	// The options packet crosses the router twice (forward + reply), so
	// it must lag the plain ping by at least 200ms of slow-path delay.
	if optAt < plainAt+200*time.Millisecond {
		t.Errorf("options RTT %v vs plain %v: slow path not applied", optAt, plainAt)
	}
}

func TestSourceRouteRefusedByDefault(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	// Route the probe through R1's ingress address, then to the dest.
	sr, err := packet.NewSourceRoute(false, []netip.Addr{a(destAddrStr)})
	if err != nil {
		t.Fatal(err)
	}
	hdr := packet.IPv4{TTL: 64, ID: 1, Protocol: packet.ProtocolICMP, Src: a(vpAddrStr), Dst: c.inAddrs[0]}
	if err := hdr.SetSourceRoute(sr); err != nil {
		t.Fatal(err)
	}
	wire, err := hdr.Marshal(packet.NewEchoRequest(1, 1, nil).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	c.vp.Inject(wire)
	c.net.Engine().Run()
	if got := c.net.Counter("router.drop.sourceroute"); got != 1 {
		t.Errorf("sourceroute drops = %d, want 1 (modern refusal)", got)
	}
	if len(c.replies) != 0 {
		t.Errorf("replies = %d", len(c.replies))
	}
}

func TestSourceRouteHonoredWhenAllowed(t *testing.T) {
	c := buildChain(2, func(int) RouterBehavior {
		return RouterBehavior{AllowSourceRoute: true}
	}, DefaultHostBehavior())
	sr, err := packet.NewSourceRoute(false, []netip.Addr{a(destAddrStr)})
	if err != nil {
		t.Fatal(err)
	}
	hdr := packet.IPv4{TTL: 64, ID: 2, Protocol: packet.ProtocolICMP, Src: a(vpAddrStr), Dst: c.inAddrs[0]}
	if err := hdr.SetSourceRoute(sr); err != nil {
		t.Fatal(err)
	}
	wire, err := hdr.Marshal(packet.NewEchoRequest(2, 1, nil).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	c.vp.Inject(wire)
	c.net.Engine().Run()
	if got := c.net.Counter("router.fwd.sourceroute"); got != 1 {
		t.Fatalf("sourceroute forwards = %d, want 1", got)
	}
	// The packet reached the destination with the route exhausted, so
	// the host answered (the reply carries no source route back).
	if len(c.replies) != 1 {
		t.Fatalf("replies = %d, want 1", len(c.replies))
	}
	_, icmp := decodeReply(t, c.replies[0].raw)
	if icmp.Type != packet.ICMPEchoReply || icmp.ID != 2 {
		t.Errorf("reply %v id=%d", icmp.Type, icmp.ID)
	}
}

func TestHostDropsUnexhaustedSourceRoute(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	// A source route whose next hop is still pending, addressed
	// directly at the host.
	sr, err := packet.NewSourceRoute(false, []netip.Addr{a("10.9.9.9")})
	if err != nil {
		t.Fatal(err)
	}
	hdr := packet.IPv4{TTL: 64, ID: 3, Protocol: packet.ProtocolICMP, Src: a(vpAddrStr), Dst: a(destAddrStr)}
	if err := hdr.SetSourceRoute(sr); err != nil {
		t.Fatal(err)
	}
	wire, err := hdr.Marshal(packet.NewEchoRequest(3, 1, nil).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	c.vp.Inject(wire)
	c.net.Engine().Run()
	if got := c.net.Counter("host.drop.sourceroute"); got != 1 {
		t.Errorf("host sourceroute drops = %d, want 1", got)
	}
}

// TestRRAndTimestampInOnePacket: a datagram carrying Record Route and an
// Internet Timestamp option (type 68) takes the options slow path at
// every router, and the routers stamp Record Route only: the Timestamp
// option reaches the destination byte for byte as sent, and the echo
// reply carries Record Route alone.
func TestRRAndTimestampInOnePacket(t *testing.T) {
	c := buildChain(3, nil, DefaultHostBehavior())
	ts := tsOpt(13, 1, make([]byte, 16)...)
	var delivered []byte
	c.dest.SetSniffer(func(_ time.Duration, pkt []byte) { delivered = bytes.Clone(pkt) })
	c.vp.Inject(fixUp(rawDatagram(64, a(destAddrStr), append(rrOpt(3, 4), ts...), 0), 3))
	c.net.Engine().Run()

	var req packet.IPv4
	if _, err := req.Decode(delivered); err != nil {
		t.Fatalf("request at the destination: %v", err)
	}
	var rr packet.RecordRoute
	if found, _ := req.RecordRouteOption(&rr); !found || !slices.Equal(rr.Recorded(), c.fwdAddrs) {
		t.Errorf("request's RR = %v, want the forward path %v", rr.Recorded(), c.fwdAddrs)
	}
	if len(req.Options) != 2 || req.Options[1].Type != 68 || !bytes.Equal(req.Options[1].Data, ts[2:]) {
		t.Errorf("request's options = %v, want RR then the Timestamp option as sent", req.Options)
	}
	// Three routers out, three back: the reply's RR keeps it on the slow path.
	if got := c.net.Counter("router.slowpath"); got != 6 {
		t.Errorf("router.slowpath = %d, want 6", got)
	}
	if len(c.replies) != 1 {
		t.Fatalf("replies = %d", len(c.replies))
	}
	ip, _ := decodeReply(t, c.replies[0].raw)
	if len(ip.Options) != 1 || ip.Options[0].Type != packet.OptRecordRoute {
		t.Errorf("reply's options = %v, want Record Route alone", ip.Options)
	}
}
