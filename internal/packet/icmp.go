package packet

import (
	"encoding/binary"
	"fmt"
)

// ICMPType is the ICMPv4 message type.
type ICMPType uint8

// ICMP message types and codes used by the toolkit (RFC 792).
const (
	ICMPEchoReply      ICMPType = 0
	ICMPDestUnreach    ICMPType = 3
	ICMPEchoRequest    ICMPType = 8
	ICMPTimeExceeded   ICMPType = 11
	ICMPParamProblem   ICMPType = 12
	ICMPTimestamp      ICMPType = 13
	ICMPTimestampReply ICMPType = 14

	// CodePortUnreachable is Destination Unreachable's "port unreachable".
	CodePortUnreachable uint8 = 3
	// CodeTTLExceeded is Time Exceeded's "time to live exceeded in transit".
	CodeTTLExceeded uint8 = 0
)

// String returns the conventional name of the message type.
func (t ICMPType) String() string {
	switch t {
	case ICMPEchoReply:
		return "echo-reply"
	case ICMPDestUnreach:
		return "dest-unreach"
	case ICMPEchoRequest:
		return "echo-request"
	case ICMPTimeExceeded:
		return "time-exceeded"
	case ICMPParamProblem:
		return "param-problem"
	case ICMPTimestamp:
		return "timestamp"
	case ICMPTimestampReply:
		return "timestamp-reply"
	default:
		return fmt.Sprintf("icmp(%d)", uint8(t))
	}
}

// IsError reports whether the type is an ICMP error message, which quotes
// the offending datagram in its body.
func (t ICMPType) IsError() bool {
	switch t {
	case ICMPDestUnreach, ICMPTimeExceeded, ICMPParamProblem:
		return true
	}
	return false
}

// icmpFixedLen is the length of the ICMP header through the 4-byte
// rest-of-header field (ID/Seq for echo, unused for errors).
const icmpFixedLen = 8

// ICMP is a decoded ICMPv4 message.
//
// For echo request/reply, ID and Seq are meaningful and Payload is the
// echo data. For error messages, ID and Seq are zero and Payload is the
// quoted datagram: the offending IPv4 header (with options — this is how
// ping-RRudp reads back Record Route contents, §3.3 of the paper)
// followed by at least its first 8 payload bytes.
type ICMP struct {
	Type     ICMPType
	Code     uint8
	ID, Seq  uint16
	Payload  []byte
	Checksum uint16 // from the last decode
}

// AppendTo encodes the message onto b, computing the checksum.
func (m *ICMP) AppendTo(b []byte) []byte {
	start := len(b)
	b = append(b, byte(m.Type), m.Code, 0, 0)
	b = binary.BigEndian.AppendUint16(b, m.ID)
	b = binary.BigEndian.AppendUint16(b, m.Seq)
	b = append(b, m.Payload...)
	cs := Checksum(b[start:])
	binary.BigEndian.PutUint16(b[start+2:], cs)
	return b
}

// Len returns the encoded length of the message.
func (m *ICMP) Len() int { return icmpFixedLen + len(m.Payload) }

// Marshal encodes the message into a fresh buffer.
func (m *ICMP) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, m.Len()))
}

// Decode parses an ICMPv4 message into the receiver, verifying the
// checksum. Payload aliases the input.
func (m *ICMP) Decode(data []byte) error {
	if len(data) < icmpFixedLen {
		return fmt.Errorf("%w: %d bytes of ICMP", ErrTruncated, len(data))
	}
	if Checksum(data) != 0 {
		return fmt.Errorf("%w: ICMP", ErrChecksum)
	}
	m.Type = ICMPType(data[0])
	m.Code = data[1]
	m.Checksum = binary.BigEndian.Uint16(data[2:])
	m.ID = binary.BigEndian.Uint16(data[4:])
	m.Seq = binary.BigEndian.Uint16(data[6:])
	m.Payload = data[icmpFixedLen:]
	if m.Type.IsError() {
		// The ID/Seq field is "unused" in error messages; normalize so
		// callers never match errors against echo identifiers.
		m.ID, m.Seq = 0, 0
	}
	return nil
}

// QuotedDatagram parses the quoted datagram carried by an ICMP error
// message into hdr, returning the quoted transport bytes (typically the
// first 8 bytes of the offending payload). It fails if the message is not
// an error type.
//
// RFC 1812 requires the quote to include the full IP header including
// options, which is what lets a TTL-limited ping-RR be read back at the
// source (§4.2 of the paper).
func (m *ICMP) QuotedDatagram(hdr *IPv4) ([]byte, error) {
	if !m.Type.IsError() {
		return nil, fmt.Errorf("%w: %v carries no quoted datagram", ErrBadHeader, m.Type)
	}
	return hdr.DecodeHeaderOnly(m.Payload)
}

// QuotedEcho extracts the type, identifier, and sequence number from the
// quoted transport bytes of an ICMP error whose offending packet was an
// ICMP echo. The quote is truncated to 8 bytes by most routers, so no
// checksum verification is possible — the caller matches id/seq against
// its own outstanding probes instead.
func QuotedEcho(b []byte) (t ICMPType, id, seq uint16, ok bool) {
	if len(b) < 8 {
		return 0, 0, 0, false
	}
	return ICMPType(b[0]), binary.BigEndian.Uint16(b[4:]), binary.BigEndian.Uint16(b[6:]), true
}

// QuotedUDP extracts the port pair from the quoted transport bytes of an
// ICMP error whose offending packet was UDP. Like QuotedEcho, the quote
// is too short to verify.
func QuotedUDP(b []byte) (srcPort, dstPort uint16, ok bool) {
	if len(b) < 4 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint16(b), binary.BigEndian.Uint16(b[2:]), true
}

// NewEchoRequest builds an echo request with the given identifier,
// sequence number, and data.
func NewEchoRequest(id, seq uint16, data []byte) *ICMP {
	return &ICMP{Type: ICMPEchoRequest, ID: id, Seq: seq, Payload: data}
}

// EchoReply builds the reply to an echo request, preserving ID, Seq, and
// data as RFC 792 requires.
func (m *ICMP) EchoReply() *ICMP {
	return &ICMP{Type: ICMPEchoReply, ID: m.ID, Seq: m.Seq, Payload: m.Payload}
}

// NewError builds an ICMP error message of the given type and code
// quoting the offending datagram. quoteHeader must be the serialized IPv4
// header (with options) of the offending packet and quotePayload its
// payload; the quote is truncated to the header plus 8 payload bytes, the
// minimum RFC 792 quote, which matches common router behaviour.
func NewError(t ICMPType, code uint8, quoteHeader, quotePayload []byte) *ICMP {
	q := quotePayload
	if len(q) > errorQuotePayload {
		q = q[:errorQuotePayload]
	}
	body := make([]byte, 0, len(quoteHeader)+len(q))
	body = append(body, quoteHeader...)
	body = append(body, q...)
	return &ICMP{Type: t, Code: code, Payload: body}
}

// errorQuotePayload is how much of the offending payload an error
// quotes after the header: the RFC 792 minimum.
const errorQuotePayload = 8

// ErrorQuote returns the quote NewError builds — header plus 8 payload
// bytes — as a sub-slice of the offending datagram itself, for a node
// that serializes the error before letting go of the datagram. hdrLen
// is the datagram's header length.
func ErrorQuote(datagram []byte, hdrLen int) []byte {
	return datagram[:min(len(datagram), hdrLen+errorQuotePayload)]
}
