package packet

import (
	"encoding/binary"
	"fmt"
)

// Wire-level header access: a forwarding router changes three things in
// a datagram — TTL, the next free slot of a Record Route or Timestamp
// option, and the checksum — so it edits the serialized bytes in place
// instead of decoding them into an IPv4 struct and re-encoding. Wire
// accepts exactly the datagrams IPv4.Decode accepts, and its copy plus
// the Stamp editors produce exactly the bytes Decode → Record →
// SetRecordRoute/SetTimestamp → AppendTo produces
// (FuzzForwardEquivalence in internal/netsim holds the two together).

// Wire is the validated layout of a serialized IPv4 datagram.
type Wire struct {
	// HdrLen is the header length the datagram arrived with (IHL*4).
	HdrLen int
	// Total is the header's TotalLength; bytes beyond it are not part
	// of the datagram.
	Total int
	// OptEnd is the offset one past the last option before the
	// end-of-list octet (or HdrLen when there is none); 20 means the
	// header carries no options.
	OptEnd int
	// RR and TS are the offsets of the first Record Route and Timestamp
	// options' type octets, 0 when absent.
	RR, TS int
}

// ParseWire validates the datagram as IPv4.Decode does — version, IHL,
// header checksum, option TLV structure, TotalLength — and returns its
// layout without materializing any field.
func ParseWire(data []byte) (Wire, error) {
	hdrLen, err := checkHeader(data)
	if err != nil {
		return Wire{}, err
	}
	w := Wire{HdrLen: hdrLen, OptEnd: hdrLen}
walk:
	for i := ipv4FixedLen; i < hdrLen; {
		switch t := OptionType(data[i]); t {
		case OptEndOfList:
			w.OptEnd = i
			break walk
		case OptNOP:
			i++
		default:
			if i+1 >= hdrLen {
				return Wire{}, fmt.Errorf("%w: option %v missing length", ErrTruncated, t)
			}
			olen := int(data[i+1])
			if olen < 2 || i+olen > hdrLen {
				return Wire{}, fmt.Errorf("%w: option %v length %d", ErrBadHeader, t, olen)
			}
			if t == OptRecordRoute && w.RR == 0 {
				w.RR = i
			} else if t == OptTimestamp && w.TS == 0 {
				w.TS = i
			}
			i += olen
		}
	}
	if w.Total, err = checkTotalLength(data, hdrLen); err != nil {
		return Wire{}, err
	}
	return w, nil
}

// HasOptions reports whether the header carries at least one option
// (padding NOPs count, as they do in IPv4.Options).
func (w Wire) HasOptions() bool { return w.OptEnd > ipv4FixedLen }

// AppendTo appends the datagram to b in the form IPv4.AppendTo
// serializes it: options kept up to the end-of-list octet and zero
// padded to a 4-octet boundary (IHL and TotalLength shrink with them
// when the sender padded more), bytes beyond TotalLength dropped. It
// returns the extended buffer and the copy's header length. The copy's
// checksum is that of the original; call SetHeaderChecksum once the
// header edits are done.
func (w Wire) AppendTo(b, data []byte) ([]byte, int) {
	start := len(b)
	hdrLen := ipv4FixedLen + (w.OptEnd-ipv4FixedLen+3)&^3
	if hdrLen == w.HdrLen {
		b = append(b, data[:w.Total]...)
		clear(b[start+w.OptEnd : start+hdrLen])
		return b, hdrLen
	}
	b = append(b, data[:w.OptEnd]...)
	for len(b)-start < hdrLen {
		b = append(b, byte(OptEndOfList))
	}
	b = append(b, data[w.HdrLen:w.Total]...)
	b[start] = 4<<4 | byte(hdrLen/4)
	binary.BigEndian.PutUint16(b[start+2:], uint16(len(b)-start))
	return b, hdrLen
}

// SetHeaderChecksum recomputes the checksum of the serialized header
// hdr (exactly the header, options included) in place.
func SetHeaderChecksum(hdr []byte) {
	hdr[10], hdr[11] = 0, 0
	binary.BigEndian.PutUint16(hdr[10:], Checksum(hdr))
}

// StampRecordRoute is the router-side Record Route operation on wire
// bytes: opt starts at the option's type octet (Wire.RR). It writes
// addr into the slot the pointer names and advances the pointer,
// reporting false — and leaving opt untouched — when the option is full
// or fails the validation DecodeRecordRoute applies (whole 4-octet
// slots, pointer at least 4 and slot-aligned).
func StampRecordRoute(opt []byte, addr [4]byte) bool {
	if len(opt) < rrFixedLen {
		return false
	}
	olen, p := int(opt[1]), int(opt[2])
	if olen < rrFixedLen || olen > len(opt) || (olen-rrFixedLen)%4 != 0 {
		return false
	}
	if p < rrFirstPointer || (p-rrFirstPointer)%4 != 0 || p > olen {
		return false
	}
	copy(opt[p-1:p+3], addr[:])
	opt[2] = byte(p + 4)
	return true
}

// StampTimestamp is the router-side Internet Timestamp operation on
// wire bytes: opt starts at the option's type octet (Wire.TS). It
// registers the hop as Timestamp.Record does — timestamp only, address
// and timestamp, or timestamp at a matching prespecified address; a
// full option bumps the overflow nibble (saturating at 15) instead. It
// reports false, leaving opt untouched, only when the option fails the
// validation DecodeTimestamp applies.
func StampTimestamp(opt []byte, addr [4]byte, millis uint32) bool {
	if len(opt) < tsFixedLen {
		return false
	}
	olen, p := int(opt[1]), int(opt[2])
	if olen < tsFixedLen || olen > len(opt) {
		return false
	}
	flag := TSFlag(opt[3] & 0xf)
	if flag != TSOnly && flag != TSAddr && flag != TSPrespecified {
		return false
	}
	slot := flag.slotSize()
	if (olen-tsFixedLen)%slot != 0 || p < tsFixedLen+1 || (p-tsFixedLen-1)%slot != 0 {
		return false
	}
	if p > olen {
		if opt[3]>>4 < 15 {
			opt[3] += 1 << 4
		}
		return true
	}
	at := opt[p-1:]
	switch flag {
	case TSOnly:
		binary.BigEndian.PutUint32(at, millis)
	case TSAddr:
		copy(at, addr[:])
		binary.BigEndian.PutUint32(at[4:], millis)
	case TSPrespecified:
		if [4]byte(at) != addr {
			return true // not this hop's turn: no pointer movement
		}
		binary.BigEndian.PutUint32(at[4:], millis)
	}
	opt[2] = byte(p + slot)
	return true
}
