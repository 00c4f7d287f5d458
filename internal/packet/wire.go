package packet

import (
	"encoding/binary"
	"fmt"
)

// Wire-level header access: a forwarding router changes three things in
// a datagram — TTL, the next free slot of a Record Route option, and
// the checksum — so it edits the serialized bytes in place
// instead of decoding them into an IPv4 struct and re-encoding. Wire
// accepts exactly the datagrams IPv4.Decode accepts, and Canonicalize
// plus the editors below produce exactly the bytes Decode → Record →
// SetRecordRoute → AppendTo produces
// (FuzzForwardEquivalence in internal/netsim holds the two together).
// The editors update the checksum incrementally (FuzzChecksumUpdate).

// Wire is the validated layout of a serialized IPv4 datagram.
type Wire struct {
	// HdrLen is the header length (IHL*4).
	HdrLen int
	// Total is the header's TotalLength; bytes beyond it are not part
	// of the datagram.
	Total int
	// OptEnd is the offset one past the last option before the
	// end-of-list octet (or HdrLen when there is none); 20 means the
	// header carries no options.
	OptEnd int
	// RR is the offset of the first Record Route option's type octet,
	// 0 when absent.
	RR int
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

// Canonicalize rewrites data, the datagram w was parsed from, in place
// into the form IPv4.AppendTo serializes, returning it (it only shrinks)
// and updating w: options kept up to the end-of-list octet and zero
// padded to a 4-octet boundary (IHL and TotalLength shrink with them
// when the sender padded more), bytes beyond TotalLength dropped. The
// checksum is recomputed only if a header byte changed or it reads
// 0xFFFF (valid, but never what a full computation gives).
func (w *Wire) Canonicalize(data []byte) []byte {
	hdrLen := ipv4FixedLen + (w.OptEnd-ipv4FixedLen+3)&^3
	dirty := binary.BigEndian.Uint16(data[10:]) == 0xffff
	for _, c := range data[w.OptEnd:hdrLen] {
		dirty = dirty || c != 0
	}
	clear(data[w.OptEnd:hdrLen])
	if hdrLen != w.HdrLen {
		w.Total = hdrLen + copy(data[hdrLen:], data[w.HdrLen:w.Total])
		w.HdrLen, dirty = hdrLen, true
		data[0] = 4<<4 | byte(hdrLen/4)
		binary.BigEndian.PutUint16(data[2:], uint16(w.Total))
	}
	if dirty {
		data[10], data[11] = 0, 0
		binary.BigEndian.PutUint16(data[10:], Checksum(data[:hdrLen]))
	}
	return data[:w.Total]
}

// DecrementTTL decrements the TTL of the serialized header hdr, keeping
// its checksum right.
func DecrementTTL(hdr []byte) { patch8(hdr, 8, hdr[8]-1) }

// StampRecordRoute is the router-side Record Route operation on wire
// bytes: the option starts at hdr[at] (Wire.RR) of the serialized
// header hdr. It writes addr (an IPv4 address, packed big-endian) into
// the slot the pointer names, advances
// the pointer and updates the checksum, reporting false — and leaving
// hdr untouched — when the option is full or fails the validation
// DecodeRecordRoute applies (whole 4-octet slots, pointer at least 4 and
// slot-aligned).
func StampRecordRoute(hdr []byte, at int, addr uint32) bool {
	opt := hdr[at:]
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
	patch32(hdr, at+p-1, addr)
	patch8(hdr, at+2, byte(p+4))
	return true
}
