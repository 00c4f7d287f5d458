package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IPv4 header flag bits (the three-bit Flags field, here kept in the low
// bits of a byte).
const (
	// FlagMoreFragments (MF) marks all fragments but the last.
	FlagMoreFragments uint8 = 1 << 0
	// FlagDontFragment (DF) forbids fragmentation.
	FlagDontFragment uint8 = 1 << 1
)

// ipv4FixedLen is the length of an IPv4 header without options.
const ipv4FixedLen = 20

// MaxIPv4HeaderLen is the largest possible IPv4 header (IHL = 15).
const MaxIPv4HeaderLen = ipv4FixedLen + MaxOptionsLen

// IPv4 is a decoded IPv4 header. TotalLength, IHL, and Checksum are
// computed on encode; their struct values reflect the last decode.
type IPv4 struct {
	TOS        uint8
	ID         uint16
	Flags      uint8 // low three bits: reserved, DF, MF
	FragOffset uint16
	TTL        uint8
	Protocol   Protocol
	Src, Dst   netip.Addr
	Options    []Option

	// TotalLength is the datagram length from the last decoded header;
	// encoders derive it from the payload instead.
	TotalLength uint16
	// Checksum is the header checksum from the last decoded header.
	Checksum uint16
}

// HeaderLen returns the encoded header length in bytes: 20 plus the
// padded options area.
func (h *IPv4) HeaderLen() int {
	optLen := 0
	for _, o := range h.Options {
		optLen += o.wireLen()
	}
	optLen = (optLen + 3) &^ 3
	return ipv4FixedLen + optLen
}

// AppendTo encodes the header followed by payload onto b, computing IHL,
// TotalLength, and the header checksum. It returns the extended buffer.
func (h *IPv4) AppendTo(b []byte, payload []byte) ([]byte, error) {
	b, err := h.AppendHeader(b, len(payload))
	if err != nil {
		return nil, err
	}
	return append(b, payload...), nil
}

// AppendHeader encodes just the header onto b, for a payload of
// payloadLen bytes that the caller appends afterwards — which lets a
// transport encoder (ICMP.AppendTo, UDP.AppendTo) write straight into
// the datagram's buffer instead of a staging one.
func (h *IPv4) AppendHeader(b []byte, payloadLen int) ([]byte, error) {
	// The errors format Src/Dst through String: boxing the netip.Addr
	// itself would leak *h and move every caller's header to the heap.
	src, ok := addr4(h.Src)
	if !ok {
		return nil, fmt.Errorf("%w: source %s", ErrNotIPv4, h.Src.String())
	}
	dst, ok := addr4(h.Dst)
	if !ok {
		return nil, fmt.Errorf("%w: destination %s", ErrNotIPv4, h.Dst.String())
	}
	start := len(b)
	b = append(b,
		0, // version+IHL, patched below
		h.TOS,
		0, 0, // total length, patched below
	)
	b = binary.BigEndian.AppendUint16(b, h.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(h.Flags&0x7)<<13|h.FragOffset&0x1fff)
	b = append(b, h.TTL, byte(h.Protocol), 0, 0) // checksum patched below
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	var err error
	b, err = appendOptions(b, h.Options)
	if err != nil {
		return nil, err
	}
	hdrLen := len(b) - start
	if hdrLen%4 != 0 || hdrLen > MaxIPv4HeaderLen {
		return nil, fmt.Errorf("%w: header length %d", ErrBadHeader, hdrLen)
	}
	total := hdrLen + payloadLen
	if total > 0xffff {
		return nil, fmt.Errorf("%w: total length %d", ErrBadHeader, total)
	}
	b[start] = 4<<4 | byte(hdrLen/4)
	binary.BigEndian.PutUint16(b[start+2:], uint16(total))
	cs := Checksum(b[start : start+hdrLen])
	binary.BigEndian.PutUint16(b[start+10:], cs)
	return b, nil
}

// Marshal encodes the header and payload into a fresh buffer.
func (h *IPv4) Marshal(payload []byte) ([]byte, error) {
	return h.AppendTo(make([]byte, 0, h.HeaderLen()+len(payload)), payload)
}

// Decode parses an IPv4 datagram into the receiver and returns the payload
// (the bytes after the header, trimmed to TotalLength). The receiver's
// Options slice is reused when capacity allows; option data aliases the
// input. The header checksum is verified.
func (h *IPv4) Decode(data []byte) (payload []byte, err error) {
	hdrLen, err := h.decodeHeader(data)
	if err != nil {
		return nil, err
	}
	total, err := checkTotalLength(data, hdrLen)
	if err != nil {
		return nil, err
	}
	return data[hdrLen:total], nil
}

// DecodeHeaderOnly parses and verifies just the IPv4 header, tolerating
// a buffer shorter than TotalLength: ICMP error messages quote a
// truncated copy of the offending datagram. A quote that does hold the
// whole datagram is checked and trimmed as Decode does.
func (h *IPv4) DecodeHeaderOnly(data []byte) (rest []byte, err error) {
	hdrLen, err := h.decodeHeader(data)
	if err != nil {
		return nil, err
	}
	if int(h.TotalLength) > len(data) {
		return data[hdrLen:], nil
	}
	total, err := checkTotalLength(data, hdrLen)
	if err != nil {
		return nil, err
	}
	return data[hdrLen:total], nil
}

// checkHeader validates everything about the serialized header that
// does not depend on its options or on the datagram length — size,
// version, IHL, checksum — and returns the header length.
func checkHeader(data []byte) (hdrLen int, err error) {
	if len(data) < ipv4FixedLen {
		return 0, fmt.Errorf("%w: %d bytes of IPv4 header", ErrTruncated, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return 0, fmt.Errorf("%w: version %d", ErrNotIPv4, v)
	}
	hdrLen = int(data[0]&0xf) * 4
	if hdrLen < ipv4FixedLen {
		return 0, fmt.Errorf("%w: IHL %d", ErrBadHeader, hdrLen/4)
	}
	if len(data) < hdrLen {
		return 0, fmt.Errorf("%w: header claims %d bytes, have %d", ErrTruncated, hdrLen, len(data))
	}
	if Checksum(data[:hdrLen]) != 0 {
		return 0, fmt.Errorf("%w: IPv4 header", ErrChecksum)
	}
	return hdrLen, nil
}

// checkTotalLength validates the TotalLength field against the header
// length and the bytes at hand, and returns it.
func checkTotalLength(data []byte, hdrLen int) (total int, err error) {
	total = int(binary.BigEndian.Uint16(data[2:]))
	if total < hdrLen {
		return 0, fmt.Errorf("%w: total length %d < header length %d", ErrBadHeader, total, hdrLen)
	}
	if total > len(data) {
		return 0, fmt.Errorf("%w: total length %d, have %d", ErrTruncated, total, len(data))
	}
	return total, nil
}

// decodeHeader is Decode without the TotalLength check: it verifies and
// parses the header fields and options and returns the header length.
func (h *IPv4) decodeHeader(data []byte) (hdrLen int, err error) {
	if hdrLen, err = checkHeader(data); err != nil {
		return 0, err
	}
	h.TOS = data[1]
	h.TotalLength = binary.BigEndian.Uint16(data[2:])
	h.ID = binary.BigEndian.Uint16(data[4:])
	ff := binary.BigEndian.Uint16(data[6:])
	h.Flags = uint8(ff >> 13)
	h.FragOffset = ff & 0x1fff
	h.TTL = data[8]
	h.Protocol = Protocol(data[9])
	h.Checksum = binary.BigEndian.Uint16(data[10:])
	h.Src = netip.AddrFrom4([4]byte(data[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	if hdrLen > ipv4FixedLen {
		h.Options, err = parseOptions(h.Options[:0], data[ipv4FixedLen:hdrLen])
		if err != nil {
			return 0, err
		}
	} else {
		h.Options = h.Options[:0]
	}
	return hdrLen, nil
}

// RecordRouteOption finds the header's Record Route option, if any, and
// decodes it into rr. It reports whether the option was present.
func (h *IPv4) RecordRouteOption(rr *RecordRoute) (bool, error) {
	return rr.FindRecordRoute(h.Options)
}

// SetRecordRoute replaces any existing Record Route option in the header
// with the serialization of rr (or appends one if absent).
func (h *IPv4) SetRecordRoute(rr *RecordRoute) error {
	opt, err := rr.Option()
	if err != nil {
		return err
	}
	for i := range h.Options {
		if h.Options[i].Type == OptRecordRoute {
			h.Options[i] = opt
			return nil
		}
	}
	h.Options = append(h.Options, opt)
	return nil
}

// String renders a compact human-readable summary for logs and tests.
func (h *IPv4) String() string {
	return fmt.Sprintf("IPv4 %v > %v ttl=%d proto=%v id=%d opts=%d",
		h.Src, h.Dst, h.TTL, h.Protocol, h.ID, len(h.Options))
}
