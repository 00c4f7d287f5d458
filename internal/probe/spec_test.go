package probe

import (
	"net/netip"
	"testing"
	"time"

	"recordroute/internal/packet"
)

func TestKindStringsAndProperties(t *testing.T) {
	cases := []struct {
		k     Kind
		s     string
		hasRR bool
	}{
		{Ping, "ping", false},
		{PingRR, "ping-rr", true},
		{PingRRUDP, "ping-rr-udp", true},
		{TTLPing, "ttl-ping", false},
		{TTLPingRR, "ttl-ping-rr", true},
		{PingLSRR, "ping-lsrr", false},
	}
	for _, c := range cases {
		if c.k.String() != c.s {
			t.Errorf("%d.String() = %q, want %q", c.k, c.k.String(), c.s)
		}
		if c.k.HasRR() != c.hasRR {
			t.Errorf("%s.HasRR() = %v", c.s, c.k.HasRR())
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty string")
	}
}

// TestKindJournalNumbers pins each kind's number: journals and result
// streams record a probe's kind as an int, so renumbering one would make
// journals already written read back as a different probe. Number 5 is
// unused.
func TestKindJournalNumbers(t *testing.T) {
	for _, c := range []struct {
		k    Kind
		want int
	}{
		{Ping, 0}, {PingRR, 1}, {PingRRUDP, 2}, {TTLPing, 3}, {TTLPingRR, 4}, {PingLSRR, 6},
	} {
		if int(c.k) != c.want {
			t.Errorf("%v = %d, want %d", c.k, int(c.k), c.want)
		}
	}
}

func TestResponseTypeStrings(t *testing.T) {
	for _, c := range []struct {
		r ResponseType
		s string
	}{
		{NoResponse, "timeout"},
		{EchoReply, "echo-reply"},
		{TimeExceeded, "time-exceeded"},
		{PortUnreachable, "port-unreachable"},
		{OtherResponse, "other"},
	} {
		if c.r.String() != c.s {
			t.Errorf("%d.String() = %q", c.r, c.r.String())
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	var s Spec
	if s.ttl() != DefaultTTL || s.rrSlots() != DefaultRRSlots || s.udpDstPort() != DefaultUDPPort {
		t.Errorf("defaults: %d %d %d", s.ttl(), s.rrSlots(), s.udpDstPort())
	}
	s = Spec{TTL: 5, RRSlots: 3, UDPDstPort: 9999}
	if s.ttl() != 5 || s.rrSlots() != 3 || s.udpDstPort() != 9999 {
		t.Errorf("overrides: %d %d %d", s.ttl(), s.rrSlots(), s.udpDstPort())
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.rate() != DefaultRate || o.timeout() != DefaultTimeout {
		t.Errorf("defaults: %v %v", o.rate(), o.timeout())
	}
	o = Options{Rate: 5, Timeout: time.Second}
	if o.rate() != 5 || o.timeout() != time.Second {
		t.Errorf("overrides: %v %v", o.rate(), o.timeout())
	}
}

func TestUDPSrcPortRoundTrip(t *testing.T) {
	for _, seq := range []uint16{0, 1, 1000, 39999, 40000, 65535} {
		port := udpSrcPort(seq)
		got, ok := seqFromUDPSrcPort(port)
		if !ok {
			t.Fatalf("seq %d: port %d unparseable", seq, port)
		}
		if got != seq%40000 {
			t.Errorf("seq %d: round trip gave %d", seq, got)
		}
	}
	if _, ok := seqFromUDPSrcPort(100); ok {
		t.Error("low port accepted")
	}
	if _, ok := seqFromUDPSrcPort(60001); ok {
		t.Error("high port accepted")
	}
}

func TestSpecBuildWireShapes(t *testing.T) {
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.9.0.1")
	via := netip.MustParseAddr("10.5.0.1")

	cases := []struct {
		name string
		spec Spec
		// verify inspects the decoded header.
		verify func(t *testing.T, h *packet.IPv4)
	}{
		{"ping", Spec{Dst: dst, Kind: Ping}, func(t *testing.T, h *packet.IPv4) {
			if len(h.Options) != 0 {
				t.Error("plain ping carries options")
			}
		}},
		{"rr", Spec{Dst: dst, Kind: PingRR, RRSlots: 4}, func(t *testing.T, h *packet.IPv4) {
			var rr packet.RecordRoute
			if found, _ := h.RecordRouteOption(&rr); !found || rr.NumSlots() != 4 {
				t.Errorf("rr slots = %d", rr.NumSlots())
			}
		}},
		{"lsrr", Spec{Dst: dst, Kind: PingLSRR, Via: []netip.Addr{via}}, func(t *testing.T, h *packet.IPv4) {
			if h.Dst != via {
				t.Errorf("lsrr initial dst = %v, want via %v", h.Dst, via)
			}
			var sr packet.SourceRoute
			if found, _ := h.SourceRouteOption(&sr); !found || sr.NextHop() != dst {
				t.Errorf("source route next hop = %v", sr.NextHop())
			}
		}},
		{"udp", Spec{Dst: dst, Kind: PingRRUDP}, func(t *testing.T, h *packet.IPv4) {
			if h.Protocol != packet.ProtocolUDP {
				t.Errorf("protocol = %v", h.Protocol)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wire, err := c.spec.build(nil, src, 7, 9)
			if err != nil {
				t.Fatal(err)
			}
			var h packet.IPv4
			if _, err := h.Decode(wire); err != nil {
				t.Fatal(err)
			}
			c.verify(t, &h)
		})
	}

	if _, err := (Spec{Dst: dst, Kind: PingLSRR}).build(nil, src, 1, 1); err == nil {
		t.Error("lsrr without via accepted")
	}
	if _, err := (Spec{Dst: netip.MustParseAddr("::1"), Kind: Ping}).build(nil, src, 1, 1); err == nil {
		t.Error("IPv6 destination accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Type: NoResponse}
	if r.Responded() || r.RTT() != 0 || r.RRSlotsRemaining() != 0 {
		t.Error("timeout result helpers wrong")
	}
	r = Result{
		Type: EchoReply, SentAt: time.Millisecond, RcvdAt: 3 * time.Millisecond,
		HasRR: true, RRTotalSlots: 9,
		RR: []netip.Addr{netip.MustParseAddr("10.0.0.1")},
	}
	if r.RTT() != 2*time.Millisecond {
		t.Errorf("RTT = %v", r.RTT())
	}
	if !r.RRContains(netip.MustParseAddr("10.0.0.1")) || r.RRContains(netip.MustParseAddr("10.0.0.2")) {
		t.Error("RRContains wrong")
	}
	if r.RRSlotsRemaining() != 8 {
		t.Errorf("remaining = %d", r.RRSlotsRemaining())
	}
}

// buildReference is build as it was before it appended into one buffer:
// option structs, Set* on the header, a Marshal per layer. Kept as the
// oracle for TestSpecBuildMatchesStructEncoders.
func buildReference(s Spec, src netip.Addr, id, seq uint16) ([]byte, error) {
	hdr := packet.IPv4{TTL: s.ttl(), ID: seq, Src: src, Dst: s.Dst}
	if s.Kind.HasRR() {
		if err := hdr.SetRecordRoute(packet.NewRecordRoute(s.rrSlots())); err != nil {
			return nil, err
		}
	}
	if s.Kind == PingLSRR {
		sr, err := packet.NewSourceRoute(false, append(append([]netip.Addr(nil), s.Via[1:]...), s.Dst))
		if err != nil {
			return nil, err
		}
		if err := hdr.SetSourceRoute(sr); err != nil {
			return nil, err
		}
		hdr.Dst = s.Via[0]
	}
	if s.Kind == PingRRUDP {
		hdr.Protocol = packet.ProtocolUDP
		u := packet.UDP{SrcPort: udpSrcPort(seq), DstPort: s.udpDstPort()}
		transport, err := u.Marshal(src, s.Dst)
		if err != nil {
			return nil, err
		}
		return hdr.Marshal(transport)
	}
	hdr.Protocol = packet.ProtocolICMP
	return hdr.Marshal(packet.NewEchoRequest(id, seq, nil).Marshal())
}

// Probe wire images are content-keyed by the fault plan and quoted back
// in ICMP errors, so the single-buffer build must produce exactly the
// bytes the struct encoders do.
func TestSpecBuildMatchesStructEncoders(t *testing.T) {
	src, dst := netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("100.9.0.7")
	via := []netip.Addr{netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("10.2.0.1")}
	specs := []Spec{
		{Dst: dst, Kind: Ping},
		{Dst: dst, Kind: PingRR},
		{Dst: dst, Kind: PingRR, RRSlots: 1},
		{Dst: dst, Kind: PingRRUDP, RRSlots: 4, UDPDstPort: 33434},
		{Dst: dst, Kind: TTLPing, TTL: 3},
		{Dst: dst, Kind: TTLPingRR, TTL: 255, RRSlots: 8},
		{Dst: dst, Kind: PingLSRR, Via: via},
	}
	for _, s := range specs {
		for _, seq := range []uint16{0, 1, 0xfffe} {
			got, err := s.build(nil, src, 77, seq)
			if err != nil {
				t.Fatalf("%v: %v", s.Kind, err)
			}
			want, err := buildReference(s, src, 77, seq)
			if err != nil {
				t.Fatalf("%v reference: %v", s.Kind, err)
			}
			if string(got) != string(want) {
				t.Errorf("%v seq %d:\n got %x\nwant %x", s.Kind, seq, got, want)
			}
		}
	}
}

// BenchmarkSpecBuild times serializing a ping-RR into a reused buffer,
// as the prober does, and pins that it allocates nothing. (A benchmark,
// not a test, because -race instrumentation allocates on its own.)
func BenchmarkSpecBuild(b *testing.B) {
	src := netip.MustParseAddr("10.0.0.2")
	s := Spec{Dst: netip.MustParseAddr("100.9.0.7"), Kind: PingRR}
	var buf []byte
	build := func() {
		var err error
		if buf, err = s.build(buf[:0], src, 77, 5); err != nil {
			b.Fatal(err)
		}
	}
	build() // sizes the buffer
	if n := testing.AllocsPerRun(100, build); n != 0 {
		b.Fatalf("build allocates %v times, want 0", n)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build()
	}
}
