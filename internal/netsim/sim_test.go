package netsim

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"recordroute/internal/packet"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

// chain is a VP — R0 — R1 — … — R(n-1) — dest line topology with /32
// routes in both directions, the smallest network that exercises the
// whole forwarding, stamping, and reply path.
type chain struct {
	net     *Network
	vp      *Host
	dest    *Host
	routers []*Router
	// fwdAddrs[i] is router i's egress address toward dest (the address
	// it stamps into forward Record Route slots); revAddrs[i] its egress
	// address toward the VP (stamped on the reply path).
	fwdAddrs []netip.Addr
	revAddrs []netip.Addr
	// inAddrs[i] is router i's ingress address from the VP direction
	// (the source of its Time Exceeded errors).
	inAddrs []netip.Addr

	replies []capturedPacket
}

type capturedPacket struct {
	at  time.Duration
	raw []byte
}

const (
	vpAddrStr   = "10.0.0.2"
	destAddrStr = "10.2.0.2"
)

// buildChain builds the line topology. behavior(i) configures router i;
// nil means default (conformant) behaviour everywhere.
func buildChain(n int, behavior func(i int) RouterBehavior, hb HostBehavior) *chain {
	c := &chain{net: New()}
	c.vp = c.net.AddHost("vp", a(vpAddrStr), DefaultHostBehavior())
	c.dest = c.net.AddHost("dest", a(destAddrStr), hb)
	for i := 0; i < n; i++ {
		rb := RouterBehavior{}
		if behavior != nil {
			rb = behavior(i)
		}
		c.routers = append(c.routers, c.net.AddRouter(fmt.Sprintf("r%d", i), rb))
	}
	delay := time.Millisecond

	// VP — R0.
	_, r0in := c.net.Connect(c.vp, c.routers[0], a(vpAddrStr), a("10.0.0.1"), delay)
	revIfaces := []*Iface{r0in}
	c.inAddrs = append(c.inAddrs, r0in.Addr)

	// R(i) — R(i+1).
	var fwdIfaces []*Iface
	for i := 0; i+1 < n; i++ {
		near, far := c.net.Connect(c.routers[i], c.routers[i+1],
			a(fmt.Sprintf("10.1.%d.1", i+1)), a(fmt.Sprintf("10.1.%d.2", i+1)), delay)
		fwdIfaces = append(fwdIfaces, near)
		revIfaces = append(revIfaces, far)
		c.inAddrs = append(c.inAddrs, far.Addr)
	}

	// R(n-1) — dest.
	last, _ := c.net.Connect(c.routers[n-1], c.dest, a("10.2.0.1"), a(destAddrStr), delay)
	fwdIfaces = append(fwdIfaces, last)

	vpPfx := netip.PrefixFrom(a(vpAddrStr), 32)
	destPfx := netip.PrefixFrom(a(destAddrStr), 32)
	for i, r := range c.routers {
		r.AddRoute(destPfx, fwdIfaces[i])
		r.AddRoute(vpPfx, revIfaces[i])
		c.fwdAddrs = append(c.fwdAddrs, fwdIfaces[i].Addr)
		c.revAddrs = append(c.revAddrs, revIfaces[i].Addr)
	}

	c.vp.SetSniffer(func(at time.Duration, pkt []byte) {
		buf := make([]byte, len(pkt))
		copy(buf, pkt)
		c.replies = append(c.replies, capturedPacket{at: at, raw: buf})
	})
	return c
}

// egressTo returns the interface r's FIB routes dst through.
func egressTo(r *Router, dst netip.Addr) *Iface { return r.net.iface(r.FIB().Lookup(dst)) }

// makePingRR builds a serialized echo request, with an RR option when
// slots > 0.
func makePingRR(t testing.TB, src, dst netip.Addr, id, seq uint16, ttl uint8, slots int) []byte {
	t.Helper()
	hdr := packet.IPv4{TTL: ttl, ID: id, Protocol: packet.ProtocolICMP, Src: src, Dst: dst}
	if slots > 0 {
		if err := hdr.SetRecordRoute(packet.NewRecordRoute(slots)); err != nil {
			t.Fatal(err)
		}
	}
	wire, err := hdr.Marshal(packet.NewEchoRequest(id, seq, []byte("probe")).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// decodeReply parses a captured packet, failing the test on error.
func decodeReply(t *testing.T, raw []byte) (*packet.IPv4, *packet.ICMP) {
	t.Helper()
	var ip packet.IPv4
	payload, err := ip.Decode(raw)
	if err != nil {
		t.Fatalf("decode reply IP: %v", err)
	}
	var icmp packet.ICMP
	if err := icmp.Decode(payload); err != nil {
		t.Fatalf("decode reply ICMP: %v", err)
	}
	return &ip, &icmp
}

func TestPlainPingEndToEnd(t *testing.T) {
	c := buildChain(3, nil, DefaultHostBehavior())
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 1, 1, 64, 0))
	c.net.Engine().Run()
	if len(c.replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(c.replies))
	}
	ip, icmp := decodeReply(t, c.replies[0].raw)
	if icmp.Type != packet.ICMPEchoReply || icmp.ID != 1 {
		t.Errorf("reply = %v id=%d", icmp.Type, icmp.ID)
	}
	if ip.Src != a(destAddrStr) {
		t.Errorf("reply source %v", ip.Src)
	}
	if len(ip.Options) != 0 {
		t.Errorf("plain ping reply carries options: %v", ip.Options)
	}
}

func TestPingRRRecordsForwardDestAndReverse(t *testing.T) {
	c := buildChain(3, nil, DefaultHostBehavior())
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 2, 1, 64, 9))
	c.net.Engine().Run()
	if len(c.replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(c.replies))
	}
	ip, _ := decodeReply(t, c.replies[0].raw)
	var rr packet.RecordRoute
	found, err := ip.RecordRouteOption(&rr)
	if !found || err != nil {
		t.Fatalf("reply RR: found=%v err=%v", found, err)
	}
	// Expect: fwd stamps of R0..R2, dest, then reverse stamps R2..R0.
	var want []netip.Addr
	want = append(want, c.fwdAddrs...)
	want = append(want, a(destAddrStr))
	for i := len(c.routers) - 1; i >= 0; i-- {
		want = append(want, c.revAddrs[i])
	}
	got := rr.Recorded()
	if len(got) != len(want) {
		t.Fatalf("recorded %d hops %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slot %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPingRRNineHopLimitHidesFarDest(t *testing.T) {
	// 12 routers: the forward path alone exhausts all nine slots, so the
	// destination cannot appear — RR-responsive but not RR-reachable.
	c := buildChain(12, nil, DefaultHostBehavior())
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 3, 1, 64, 9))
	c.net.Engine().Run()
	if len(c.replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(c.replies))
	}
	ip, _ := decodeReply(t, c.replies[0].raw)
	var rr packet.RecordRoute
	if found, err := ip.RecordRouteOption(&rr); !found || err != nil {
		t.Fatalf("reply RR: found=%v err=%v", found, err)
	}
	if !rr.Full() {
		t.Error("option not full after 12-router path")
	}
	if rr.Contains(a(destAddrStr)) {
		t.Error("destination appears despite exceeding the nine hop limit")
	}
	for i := 0; i < 9; i++ {
		if rr.Recorded()[i] != c.fwdAddrs[i] {
			t.Errorf("slot %d = %v, want %v", i, rr.Recorded()[i], c.fwdAddrs[i])
		}
	}
}

func TestPingRREightHopBoundaryStampsDest(t *testing.T) {
	// 8 routers: dest stamps slot 9 — RR-reachable, but no reverse room.
	c := buildChain(8, nil, DefaultHostBehavior())
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 4, 1, 64, 9))
	c.net.Engine().Run()
	ip, _ := decodeReply(t, c.replies[0].raw)
	var rr packet.RecordRoute
	if found, _ := ip.RecordRouteOption(&rr); !found {
		t.Fatal("no RR in reply")
	}
	got := rr.Recorded()
	if len(got) != 9 || got[8] != a(destAddrStr) {
		t.Errorf("recorded = %v, want dest in final slot", got)
	}
}

func TestTTLExpiryGeneratesQuotedTimeExceeded(t *testing.T) {
	c := buildChain(4, nil, DefaultHostBehavior())
	// TTL 2: R0 decrements to 1, R1 sees TTL 1 and expires the packet.
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 5, 1, 2, 9))
	c.net.Engine().Run()
	if len(c.replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(c.replies))
	}
	ip, icmp := decodeReply(t, c.replies[0].raw)
	if icmp.Type != packet.ICMPTimeExceeded {
		t.Fatalf("reply type %v, want time exceeded", icmp.Type)
	}
	if ip.Src != c.inAddrs[1] {
		t.Errorf("error source %v, want R1 ingress %v", ip.Src, c.inAddrs[1])
	}
	if len(ip.Options) != 0 {
		t.Error("ICMP error itself carries IP options")
	}
	var quoted packet.IPv4
	if _, err := icmp.QuotedDatagram(&quoted); err != nil {
		t.Fatalf("QuotedDatagram: %v", err)
	}
	var rr packet.RecordRoute
	if found, err := quoted.RecordRouteOption(&rr); !found || err != nil {
		t.Fatalf("quoted RR: found=%v err=%v", found, err)
	}
	// Only R0 forwarded (and stamped) before expiry at R1.
	if rr.RecordedCount() != 1 || rr.Recorded()[0] != c.fwdAddrs[0] {
		t.Errorf("quoted RR = %v, want [%v]", rr.Recorded(), c.fwdAddrs[0])
	}
}

func TestDropOptionsRouterFiltersOnlyOptionsPackets(t *testing.T) {
	c := buildChain(3, func(i int) RouterBehavior {
		if i == 1 {
			return RouterBehavior{DropOptions: true}
		}
		return RouterBehavior{}
	}, DefaultHostBehavior())
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 6, 1, 64, 9))
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 7, 1, 64, 0))
	c.net.Engine().Run()
	if len(c.replies) != 1 {
		t.Fatalf("got %d replies, want only the plain ping's", len(c.replies))
	}
	_, icmp := decodeReply(t, c.replies[0].raw)
	if icmp.ID != 7 {
		t.Errorf("surviving reply id = %d, want 7", icmp.ID)
	}
	if c.net.Counter("router.drop.filter") != 1 {
		t.Errorf("filter drops = %d", c.net.Counter("router.drop.filter"))
	}
}

func TestNoStampRouterForwardsWithoutRecording(t *testing.T) {
	c := buildChain(3, func(i int) RouterBehavior {
		if i == 1 {
			return RouterBehavior{NoStampRR: true}
		}
		return RouterBehavior{}
	}, DefaultHostBehavior())
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 8, 1, 64, 9))
	c.net.Engine().Run()
	ip, _ := decodeReply(t, c.replies[0].raw)
	var rr packet.RecordRoute
	if found, _ := ip.RecordRouteOption(&rr); !found {
		t.Fatal("no RR in reply")
	}
	if rr.Contains(c.fwdAddrs[1]) {
		t.Error("non-stamping router appears in RR")
	}
	// Forward: R0, R2 (R1 silent), dest, reverse: R2, R1 silent, R0.
	got := rr.Recorded()
	if got[0] != c.fwdAddrs[0] || got[1] != c.fwdAddrs[2] || got[2] != a(destAddrStr) {
		t.Errorf("recorded = %v", got)
	}
}

func TestAnonymousRouterInvisibleToTTLButStampsRR(t *testing.T) {
	c := buildChain(3, func(i int) RouterBehavior {
		if i == 1 {
			return RouterBehavior{NoTTLDecrement: true}
		}
		return RouterBehavior{}
	}, DefaultHostBehavior())

	// A TTL-2 probe should now expire at R2, not R1: R1 is TTL-invisible.
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 9, 1, 2, 9))
	c.net.Engine().Run()
	if len(c.replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(c.replies))
	}
	ip, icmp := decodeReply(t, c.replies[0].raw)
	if icmp.Type != packet.ICMPTimeExceeded {
		t.Fatalf("reply type %v", icmp.Type)
	}
	if ip.Src != c.inAddrs[2] {
		t.Errorf("error from %v, want R2 %v (R1 must be TTL-invisible)", ip.Src, c.inAddrs[2])
	}
	// Yet the quoted RR proves R1 stamped: RR sees hops traceroute cannot.
	var quoted packet.IPv4
	if _, err := icmp.QuotedDatagram(&quoted); err != nil {
		t.Fatal(err)
	}
	var rr packet.RecordRoute
	if found, _ := quoted.RecordRouteOption(&rr); !found {
		t.Fatal("no RR in quote")
	}
	if !rr.Contains(c.fwdAddrs[1]) {
		t.Errorf("anonymous router missing from RR: %v", rr.Recorded())
	}
}

func TestOptionsRateLimiterDropsExcess(t *testing.T) {
	c := buildChain(2, func(i int) RouterBehavior {
		if i == 0 {
			return RouterBehavior{OptionsRateLimit: 10, OptionsRateBurst: 10}
		}
		return RouterBehavior{}
	}, DefaultHostBehavior())
	// 100 ping-RRs arriving in one instant: the burst admits 10.
	for i := 0; i < 100; i++ {
		c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), uint16(100+i), 1, 64, 9))
	}
	c.net.Engine().Run()
	// Exactly the burst (10) of requests is admitted; their 10 replies
	// also traverse the limiter milliseconds later, find no tokens, and
	// are dropped. Fully deterministic: 100 drops, 10 admissions, 0
	// replies reaching the VP.
	if got := c.net.Counter("router.drop.ratelimit"); got != 100 {
		t.Errorf("rate-limit drops = %d, want 100", got)
	}
	if got := c.net.Counter("host.echo.reply"); got != 10 {
		t.Errorf("destination replies sent = %d, want 10", got)
	}
	if len(c.replies) != 0 {
		t.Errorf("replies at VP = %d, want 0 (limiter eats the returns)", len(c.replies))
	}
}

func TestOptionsRateLimiterConformingTrafficPasses(t *testing.T) {
	c := buildChain(2, func(i int) RouterBehavior {
		if i == 0 {
			return RouterBehavior{OptionsRateLimit: 10, OptionsRateBurst: 10}
		}
		return RouterBehavior{}
	}, DefaultHostBehavior())
	// 20 probes at 5 pps: requests plus replies together stay at the
	// limiter's rate, so every reply survives.
	for i := 0; i < 20; i++ {
		wire := makePingRR(t, a(vpAddrStr), a(destAddrStr), uint16(200+i), 1, 64, 9)
		c.net.Engine().Schedule(time.Duration(i)*200*time.Millisecond, func() { c.vp.Inject(wire) })
	}
	c.net.Engine().Run()
	if len(c.replies) != 20 {
		t.Errorf("replies = %d, want all 20 at a conforming rate", len(c.replies))
	}
	if got := c.net.Counter("router.drop.ratelimit"); got != 0 {
		t.Errorf("rate-limit drops = %d, want 0", got)
	}
}

func TestHostNotRRResponsive(t *testing.T) {
	hb := DefaultHostBehavior()
	hb.RRResponsive = false
	c := buildChain(2, nil, hb)
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 10, 1, 64, 9))
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 11, 1, 64, 0))
	c.net.Engine().Run()
	if len(c.replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(c.replies))
	}
	_, icmp := decodeReply(t, c.replies[0].raw)
	if icmp.ID != 11 {
		t.Errorf("reply id = %d, want the plain ping (11)", icmp.ID)
	}
}

func TestHostNotHonorRROmitsOwnAddress(t *testing.T) {
	hb := DefaultHostBehavior()
	hb.HonorRR = false
	c := buildChain(2, nil, hb)
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 12, 1, 64, 9))
	c.net.Engine().Run()
	ip, _ := decodeReply(t, c.replies[0].raw)
	var rr packet.RecordRoute
	if found, _ := ip.RecordRouteOption(&rr); !found {
		t.Fatal("no RR in reply (option must still be copied)")
	}
	if rr.Contains(a(destAddrStr)) {
		t.Error("non-honoring destination stamped itself")
	}
	// Forward stamps and reverse stamps are still present.
	if !rr.Contains(c.fwdAddrs[0]) || !rr.Contains(c.revAddrs[0]) {
		t.Errorf("router stamps missing: %v", rr.Recorded())
	}
}

func TestHostStampsAliasAddress(t *testing.T) {
	hb := DefaultHostBehavior()
	hb.StampAddr = a("10.9.9.9")
	c := buildChain(2, nil, hb)
	c.dest.AddAlias(a("10.9.9.9"))
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 13, 1, 64, 9))
	c.net.Engine().Run()
	ip, _ := decodeReply(t, c.replies[0].raw)
	var rr packet.RecordRoute
	if found, _ := ip.RecordRouteOption(&rr); !found {
		t.Fatal("no RR in reply")
	}
	if rr.Contains(a(destAddrStr)) {
		t.Error("probed address recorded despite alias stamping")
	}
	if !rr.Contains(a("10.9.9.9")) {
		t.Errorf("alias missing from RR: %v", rr.Recorded())
	}
}

func TestPingRRUDPQuoteShowsSlotsAvailable(t *testing.T) {
	hb := DefaultHostBehavior()
	hb.HonorRR = false // RR-responsive but never stamps itself
	c := buildChain(2, nil, hb)

	// Build a UDP probe to a high closed port with RR enabled.
	hdr := packet.IPv4{TTL: 64, ID: 14, Protocol: packet.ProtocolUDP, Src: a(vpAddrStr), Dst: a(destAddrStr)}
	if err := hdr.SetRecordRoute(packet.NewRecordRoute(9)); err != nil {
		t.Fatal(err)
	}
	udp := packet.UDP{SrcPort: 33434, DstPort: 40000}
	transport, err := udp.Marshal(a(vpAddrStr), a(destAddrStr))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := hdr.Marshal(transport)
	if err != nil {
		t.Fatal(err)
	}
	c.vp.Inject(wire)
	c.net.Engine().Run()

	if len(c.replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(c.replies))
	}
	ip, icmp := decodeReply(t, c.replies[0].raw)
	if icmp.Type != packet.ICMPDestUnreach || icmp.Code != packet.CodePortUnreachable {
		t.Fatalf("reply %v/%d", icmp.Type, icmp.Code)
	}
	if ip.Src != a(destAddrStr) {
		t.Errorf("error source %v", ip.Src)
	}
	var quoted packet.IPv4
	if _, err := icmp.QuotedDatagram(&quoted); err != nil {
		t.Fatal(err)
	}
	var rr packet.RecordRoute
	if found, _ := quoted.RecordRouteOption(&rr); !found {
		t.Fatal("no RR in quoted datagram")
	}
	// The probe reached the destination with free slots: 2 routers
	// stamped, 7 slots remain — the §3.3 reclassification evidence.
	if rr.RecordedCount() != 2 || rr.Full() {
		t.Errorf("quoted RR: %d recorded, full=%v", rr.RecordedCount(), rr.Full())
	}
}

func TestRouterAnswersPingToItself(t *testing.T) {
	c := buildChain(3, nil, DefaultHostBehavior())
	// Ping R1's ingress address with RR.
	c.vp.Inject(makePingRR(t, a(vpAddrStr), c.inAddrs[1], 15, 1, 64, 9))
	c.net.Engine().Run()
	if len(c.replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(c.replies))
	}
	ip, icmp := decodeReply(t, c.replies[0].raw)
	if icmp.Type != packet.ICMPEchoReply {
		t.Fatalf("type %v", icmp.Type)
	}
	if ip.Src != c.inAddrs[1] {
		t.Errorf("reply from %v", ip.Src)
	}
	var rr packet.RecordRoute
	if found, _ := ip.RecordRouteOption(&rr); !found {
		t.Fatal("router reply lacks RR")
	}
	if !rr.Contains(c.inAddrs[1]) {
		t.Errorf("router did not stamp itself: %v", rr.Recorded())
	}
}

func TestHostIPIDSharedAcrossAliases(t *testing.T) {
	c := buildChain(2, nil, DefaultHostBehavior())
	alias := a("10.9.9.9")
	c.dest.AddAlias(alias)
	// Route the alias toward the dest as well.
	for i, r := range c.routers {
		r.AddRoute(netip.PrefixFrom(alias, 32), egressTo(r, a(destAddrStr)))
		_ = i
	}
	// Alternate the two addresses at the fastest probe rate anything
	// sends at, 200 pps: one probe every 5 ms.
	for i := 0; i < 6; i++ {
		dst := a(destAddrStr)
		if i%2 == 1 {
			dst = alias
		}
		pkt := makePingRR(t, a(vpAddrStr), dst, uint16(20+i), 1, 64, 0)
		c.net.Engine().Schedule(time.Duration(i)*5*time.Millisecond, func() { c.vp.Inject(pkt) })
	}
	c.net.Engine().Run()
	if len(c.replies) != 6 {
		t.Fatalf("got %d replies, want 6", len(c.replies))
	}
	var ids []uint16
	for _, rep := range c.replies {
		ip, _ := decodeReply(t, rep.raw)
		ids = append(ids, ip.ID)
	}
	// One shared counter: the six IDs are strictly increasing regardless
	// of which address was probed, and no faster than the velocity
	// ceiling allows.
	for i := 1; i < len(ids); i++ {
		if d := ids[i] - ids[i-1]; d == 0 || d > ipidVelCeil*5/1000+1 {
			t.Fatalf("IPIDs not from one shared counter: %v", ids)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		c := buildChain(5, func(i int) RouterBehavior {
			if i == 2 {
				return RouterBehavior{OptionsRateLimit: 5, OptionsRateBurst: 2}
			}
			return RouterBehavior{}
		}, DefaultHostBehavior())
		for i := 0; i < 50; i++ {
			c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), uint16(i), 1, 64, 9))
		}
		c.net.Engine().Run()
		return c.net.Counters()
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("counter sets differ: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("replay diverged: %s vs %s", first[i], second[i])
		}
	}
}

// TestPacketPoolIsBoundedByPacketsInFlight: the serialization pool
// holds what one round trip has in flight at once, however many probes
// the network has carried: Inject copies, so no probe's own buffer ever
// joins the pool.
func TestPacketPoolIsBoundedByPacketsInFlight(t *testing.T) {
	c := buildChain(3, nil, DefaultHostBehavior())
	c.vp.SetSniffer(nil)
	pooled := func(trips int) int {
		for i := 0; i < trips; i++ {
			c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 7, uint16(i), 64, 9))
			c.net.Engine().Run()
		}
		return len(c.net.bufs)
	}
	first := pooled(1)
	if got := pooled(1000); got != first {
		t.Errorf("pool holds %d buffers after 1001 round trips, %d after one: it grows with probes sent", got, first)
	}
	if got := c.net.Counter("router.rr.stamped"); got != 6*1001 {
		t.Fatalf("router.rr.stamped = %d, want %d: the round trips did not complete", got, 6*1001)
	}
}

// TestPacketPoolIntegrity drives a chain through every path that takes
// a buffer out of flight — in-place forwards, link loss, chaos link-down
// drops, chaos duplication, the slow-path delay, Time Exceeded drops,
// and Router.Receive handed a caller's slice — and checks, once nothing
// is in flight, that no buffer is in the free list twice: a double free
// would hand one buffer to two packets.
func TestPacketPoolIntegrity(t *testing.T) {
	c := buildChain(4, func(i int) RouterBehavior {
		if i == 1 {
			return RouterBehavior{SlowPathDelay: 3 * time.Millisecond}
		}
		return RouterBehavior{}
	}, DefaultHostBehavior())
	c.vp.SetSniffer(nil)
	egressTo(c.routers[0], a(destAddrStr)).SetLoss(0.2)
	egressTo(c.routers[1], a(destAddrStr)).setFaults(linkFaults{salt: 1, dup: 0.5})
	egressTo(c.routers[2], a(destAddrStr)).setFaults(linkFaults{salt: 2,
		down: faultWindow{period: 50 * time.Millisecond, duty: 10 * time.Millisecond}})
	external := makePingRR(t, a(vpAddrStr), a(destAddrStr), 9, 9, 64, 9)
	kept := append([]byte(nil), external...)
	for i := range 400 {
		ttl := uint8(2 + i%5) // some expire on the way
		pkt := makePingRR(t, a(vpAddrStr), a(destAddrStr), 7, uint16(i), ttl, 9*(i%2))
		c.net.Engine().At(time.Duration(i)*time.Millisecond, func() {
			c.vp.Inject(pkt)
			if i%50 == 0 {
				c.routers[0].Receive(external, egressTo(c.routers[0], a(vpAddrStr)))
			}
		})
	}
	c.net.Engine().Run()
	for _, name := range []string{"link.loss", "chaos.link.down", "chaos.link.dup", "router.slowpath", "router.ttl.expired", "router.fwd"} {
		if c.net.Counter(name) == 0 {
			t.Errorf("%s never happened", name)
		}
	}
	if !bytes.Equal(external, kept) {
		t.Errorf("Router.Receive wrote the caller's slice")
	}
	seen := map[*byte]bool{}
	for _, b := range c.net.bufs {
		p := &b[:1][0]
		if seen[p] {
			t.Fatalf("a buffer is in the free list twice (%d buffers pooled)", len(c.net.bufs))
		}
		seen[p] = true
	}
}
