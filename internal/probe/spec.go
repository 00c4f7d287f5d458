package probe

import (
	"fmt"
	"net/netip"
	"time"

	"recordroute/internal/packet"
)

// Kind selects the probe type.
type Kind int

const (
	// Ping is a plain ICMP echo request.
	Ping Kind = iota
	// PingRR is an echo request carrying a Record Route option
	// (the paper's ping-RR).
	PingRR
	// PingRRUDP is a UDP datagram to a high closed port carrying a
	// Record Route option; the port-unreachable error quotes the option
	// (the paper's ping-RRudp, §3.3).
	PingRRUDP
	// TTLPing is a TTL-limited plain echo request (a traceroute probe).
	TTLPing
	// TTLPingRR is a TTL-limited ping-RR (§4.2's low-impact probe).
	TTLPingRR
	// PingLSRR is an echo request loose-source-routed through Via to
	// the destination — the 2005 tech report's unusable primitive,
	// kept for the historical contrast with Record Route. Journals
	// record a kind as its number, and they hold 6 for this one.
	PingLSRR Kind = 6
)

// String names the probe kind.
func (k Kind) String() string {
	switch k {
	case Ping:
		return "ping"
	case PingRR:
		return "ping-rr"
	case PingRRUDP:
		return "ping-rr-udp"
	case TTLPing:
		return "ttl-ping"
	case TTLPingRR:
		return "ttl-ping-rr"
	case PingLSRR:
		return "ping-lsrr"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// HasRR reports whether the kind carries a Record Route option.
func (k Kind) HasRR() bool { return k == PingRR || k == PingRRUDP || k == TTLPingRR }

// Default probe parameters.
const (
	DefaultTTL     = 64
	DefaultRRSlots = packet.MaxRRSlots
	// DefaultUDPPort is the base high destination port for ping-RRudp.
	DefaultUDPPort = 40967
	// udpSrcPortBase spreads the probe sequence number over source
	// ports so quoted UDP headers identify the probe: the port is
	// udpSrcPortBase + seq mod udpSrcPorts.
	udpSrcPortBase = 20000
	udpSrcPorts    = 40000
)

// Spec describes one probe to send.
type Spec struct {
	// Dst is the probed destination.
	Dst netip.Addr
	// Kind selects the probe type.
	Kind Kind
	// TTL overrides the initial TTL; 0 means DefaultTTL.
	TTL uint8
	// RRSlots overrides the Record Route slot count for RR kinds;
	// 0 means DefaultRRSlots (nine).
	RRSlots int
	// UDPDstPort overrides the UDP destination port; 0 means
	// DefaultUDPPort.
	UDPDstPort uint16
	// Via lists intermediate hops for PingLSRR; the packet is first
	// addressed to Via[0] and source-routed onward to Dst.
	Via []netip.Addr
}

// ttl returns the effective initial TTL.
func (s Spec) ttl() uint8 {
	if s.TTL == 0 {
		return DefaultTTL
	}
	return s.TTL
}

// rrSlots returns the effective RR slot count.
func (s Spec) rrSlots() int {
	if s.RRSlots == 0 {
		return DefaultRRSlots
	}
	return s.RRSlots
}

// udpDstPort returns the effective UDP destination port.
func (s Spec) udpDstPort() uint16 {
	if s.UDPDstPort == 0 {
		return DefaultUDPPort
	}
	return s.UDPDstPort
}

// build serializes the probe packet for the given source, ICMP
// identifier, and sequence number: header, options and transport are
// appended onto b, which a prober reuses from probe to probe.
func (s Spec) build(b []byte, src netip.Addr, id, seq uint16) ([]byte, error) {
	hdr := packet.IPv4{
		TTL: s.ttl(),
		// The IP ID of the probe is the sequence number: harmless,
		// useful in captures.
		ID:       seq,
		Protocol: packet.ProtocolICMP,
		Src:      src,
		Dst:      s.Dst,
	}
	// At most one option, assembled in stack scratch (hdr.Set* would
	// move the header to the heap).
	var (
		opts    [1]packet.Option
		optData [packet.MaxOptionsLen]byte
	)
	switch s.Kind {
	case Ping, TTLPing:
	case PingRR, TTLPingRR:
		opts[0] = packet.EmptyRecordRouteOption(optData[:0], s.rrSlots())
	case PingRRUDP:
		hdr.Protocol = packet.ProtocolUDP
		opts[0] = packet.EmptyRecordRouteOption(optData[:0], s.rrSlots())
	case PingLSRR:
		if len(s.Via) == 0 {
			return nil, fmt.Errorf("probe: ping-lsrr needs at least one via hop")
		}
		route := append(append([]netip.Addr(nil), s.Via[1:]...), s.Dst)
		sr, err := packet.NewSourceRoute(false, route)
		if err != nil {
			return nil, err
		}
		if opts[0], err = sr.Option(); err != nil {
			return nil, err
		}
		hdr.Dst = s.Via[0]
	default:
		return nil, fmt.Errorf("probe: unknown kind %v", s.Kind)
	}
	if opts[0].Data != nil {
		hdr.Options = opts[:]
	}
	// Both transports are a bare 8-byte header: an echo request without
	// data, or a UDP datagram without payload.
	const transportLen = 8
	b, err := hdr.AppendHeader(b, transportLen)
	if err != nil {
		return nil, err
	}
	if s.Kind == PingRRUDP {
		u := packet.UDP{SrcPort: udpSrcPort(seq), DstPort: s.udpDstPort()}
		return u.AppendTo(b, src, s.Dst)
	}
	echo := packet.ICMP{Type: packet.ICMPEchoRequest, ID: id, Seq: seq}
	return echo.AppendTo(b), nil
}

// udpSrcPort encodes a probe sequence number as a UDP source port.
func udpSrcPort(seq uint16) uint16 { return udpSrcPortBase + seq%udpSrcPorts }

// seqFromUDPSrcPort inverts udpSrcPort as far as it can be: it returns
// the smaller of the at most two sequence numbers that share the port —
// the other is udpSrcPorts higher, where that still fits 16 bits, and is
// the matcher's to try. ok is false for ports outside the probe range.
func seqFromUDPSrcPort(port uint16) (uint16, bool) {
	if port < udpSrcPortBase || port >= udpSrcPortBase+udpSrcPorts {
		return 0, false
	}
	return port - udpSrcPortBase, true
}

// ResponseType classifies what came back for a probe.
type ResponseType int

const (
	// NoResponse means the probe timed out.
	NoResponse ResponseType = iota
	// EchoReply is a normal ping response.
	EchoReply
	// TimeExceeded is an ICMP TTL-expiry error.
	TimeExceeded
	// PortUnreachable is the ping-RRudp success response.
	PortUnreachable
	// OtherResponse is any other matched ICMP message.
	OtherResponse
	// SendError means the probe could not be transmitted at all — a
	// malformed spec or an exhausted sequence space (Result.Err says
	// which). Not a network response: Responded() is false.
	SendError
)

// String names the response type.
func (r ResponseType) String() string {
	switch r {
	case NoResponse:
		return "timeout"
	case EchoReply:
		return "echo-reply"
	case TimeExceeded:
		return "time-exceeded"
	case PortUnreachable:
		return "port-unreachable"
	case OtherResponse:
		return "other"
	case SendError:
		return "send-error"
	default:
		return fmt.Sprintf("resp(%d)", int(r))
	}
}

// Result reports the outcome of one probe.
type Result struct {
	Spec
	// Seq is the engine-assigned sequence number.
	Seq uint16
	// SentAt and RcvdAt are transport-clock times; RcvdAt is zero on
	// timeout.
	SentAt, RcvdAt time.Duration
	// Type classifies the response.
	Type ResponseType
	// From is the source address of the response packet.
	From netip.Addr
	// ReplyIPID is the IP identifier of the response (alias resolution
	// uses it).
	ReplyIPID uint16
	// HasRR reports whether a Record Route option was recovered, either
	// from the response header (echo replies) or from the quoted
	// offending header inside an error (time-exceeded, port-unreachable).
	HasRR bool
	// RR holds the recorded addresses in stamp order.
	RR []netip.Addr
	// RRSlots is the total slot count of the recovered option.
	RRTotalSlots int
	// RRFull reports whether the recovered option had no free slots.
	RRFull bool
	// QuotedRR reports that RR came from a quoted header rather than
	// the response's own header.
	QuotedRR bool
	// Attempts is how many times the probe was transmitted (1 plus the
	// retransmissions used); 0 for a SendError before any transmission.
	Attempts int
	// MatchedAttempt is the 1-based attempt the response answered — a
	// late reply to a superseded attempt still matches it — or 0 on
	// timeout and send error.
	MatchedAttempt int
	// Err carries the failure for SendError results; nil otherwise.
	Err error
}

// Responded reports whether any response was matched.
func (r Result) Responded() bool { return r.Type != NoResponse && r.Type != SendError }

// RTT returns the probe round-trip time, or 0 on timeout.
func (r Result) RTT() time.Duration {
	if !r.Responded() {
		return 0
	}
	return r.RcvdAt - r.SentAt
}

// RRContains reports whether addr appears among the recorded hops.
func (r Result) RRContains(addr netip.Addr) bool {
	for _, h := range r.RR {
		if h == addr {
			return true
		}
	}
	return false
}

// RRSlotsRemaining returns how many free slots the recovered option had.
func (r Result) RRSlotsRemaining() int {
	if !r.HasRR {
		return 0
	}
	return r.RRTotalSlots - len(r.RR)
}
