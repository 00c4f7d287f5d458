package packet

import (
	"fmt"
	"net/netip"
)

// OptionType identifies an IPv4 option. The value is the full option-type
// octet (copied flag, class, and number), as it appears on the wire.
type OptionType uint8

// Option types used by the toolkit (RFC 791 §3.1).
const (
	// OptEndOfList terminates the option list. Single octet.
	OptEndOfList OptionType = 0
	// OptNOP is padding between options. Single octet.
	OptNOP OptionType = 1
	// OptRecordRoute asks each router to record its address. Copied flag
	// clear, class 0, number 7.
	OptRecordRoute OptionType = 7
)

// Limits imposed by the IPv4 header format.
const (
	// MaxOptionsLen is the maximum total length of the options area:
	// IHL is 4 bits, so the header is at most 60 bytes, 20 of them fixed.
	MaxOptionsLen = 40
	// MaxRRSlots is the maximum number of address slots a Record Route
	// option can hold: 3 bytes of type/length/pointer leave 37, so at
	// most nine 4-byte slots. This is the paper's "nine hop limit".
	MaxRRSlots = 9
	// rrFixedLen is the number of fixed octets in a Record Route option
	// (type, length, pointer) preceding the address slots.
	rrFixedLen = 3
	// rrFirstPointer is the smallest legal pointer value: slots start at
	// octet 4 of the option, and the pointer is a 1-based octet offset.
	rrFirstPointer = 4
)

// String returns the conventional name of the option type.
func (t OptionType) String() string {
	switch t {
	case OptEndOfList:
		return "eol"
	case OptNOP:
		return "nop"
	case OptRecordRoute:
		return "rr"
	default:
		return fmt.Sprintf("opt(%d)", uint8(t))
	}
}

// Option is a raw IPv4 option TLV. Data excludes the type and length
// octets; for single-octet options (EOL, NOP) it is empty.
type Option struct {
	Type OptionType
	Data []byte
}

// wireLen returns the number of octets the option occupies on the wire.
func (o Option) wireLen() int {
	if o.Type == OptEndOfList || o.Type == OptNOP {
		return 1
	}
	return 2 + len(o.Data)
}

// appendOptions serializes opts and pads the result to a 4-octet boundary
// with end-of-list octets. It returns ErrOptionSpace if the padded area
// exceeds MaxOptionsLen.
func appendOptions(b []byte, opts []Option) ([]byte, error) {
	start := len(b)
	for _, o := range opts {
		switch o.Type {
		case OptEndOfList, OptNOP:
			b = append(b, byte(o.Type))
		default:
			olen := 2 + len(o.Data)
			if olen > 255 {
				return nil, fmt.Errorf("%w: option %v length %d", ErrBadHeader, o.Type, olen)
			}
			b = append(b, byte(o.Type), byte(olen))
			b = append(b, o.Data...)
		}
	}
	for (len(b)-start)%4 != 0 {
		b = append(b, byte(OptEndOfList))
	}
	if len(b)-start > MaxOptionsLen {
		return nil, ErrOptionSpace
	}
	return b, nil
}

// parseOptions parses the options area of an IPv4 header into dst,
// which is reset and reused to avoid allocation on hot paths. Option
// Data slices alias the input. Parsing stops at an end-of-list octet.
func parseOptions(dst []Option, area []byte) ([]Option, error) {
	dst = dst[:0]
	for i := 0; i < len(area); {
		t := OptionType(area[i])
		switch t {
		case OptEndOfList:
			return dst, nil
		case OptNOP:
			dst = append(dst, Option{Type: OptNOP})
			i++
		default:
			if i+1 >= len(area) {
				return dst, fmt.Errorf("%w: option %v missing length", ErrTruncated, t)
			}
			olen := int(area[i+1])
			if olen < 2 || i+olen > len(area) {
				return dst, fmt.Errorf("%w: option %v length %d", ErrBadHeader, t, olen)
			}
			dst = append(dst, Option{Type: t, Data: area[i+2 : i+olen]})
			i += olen
		}
	}
	return dst, nil
}

// RecordRoute is a decoded Record Route option. Slots holds every address
// slot the sender allocated; recorded slots come first, and the Pointer
// field determines how many have been recorded. Unrecorded slots retain
// whatever the sender placed there (conventionally 0.0.0.0).
type RecordRoute struct {
	// Pointer is the raw pointer octet: a 1-based offset from the start
	// of the option to the next free slot. Its minimum legal value is 4;
	// when it exceeds the option length the option is full.
	Pointer uint8
	// Slots are the address slots, in wire order.
	Slots []netip.Addr
}

// NewRecordRoute returns a Record Route option with n empty slots and the
// pointer at the first slot. It panics if n is not in [1, MaxRRSlots];
// the slot count is a programmer-chosen constant, never wire input.
func NewRecordRoute(n int) *RecordRoute {
	if n < 1 || n > MaxRRSlots {
		panic(fmt.Sprintf("packet: NewRecordRoute slot count %d out of range", n))
	}
	rr := &RecordRoute{Pointer: rrFirstPointer, Slots: make([]netip.Addr, n)}
	zero := netip.AddrFrom4([4]byte{})
	for i := range rr.Slots {
		rr.Slots[i] = zero
	}
	return rr
}

// EmptyRecordRouteOption returns the raw option of NewRecordRoute(n) —
// n zeroed slots, pointer at the first — with its data appended to buf,
// so a prober holding a scratch buffer builds its probes without
// allocating. It panics like NewRecordRoute when n is out of range.
func EmptyRecordRouteOption(buf []byte, n int) Option {
	if n < 1 || n > MaxRRSlots {
		panic(fmt.Sprintf("packet: EmptyRecordRouteOption slot count %d out of range", n))
	}
	buf = append(buf, rrFirstPointer)
	return Option{Type: OptRecordRoute, Data: append(buf, make([]byte, 4*n)...)}
}

// NumSlots returns the total number of address slots.
func (r *RecordRoute) NumSlots() int { return len(r.Slots) }

// wireLen returns the option length octet value: fixed bytes plus slots.
func (r *RecordRoute) wireLen() int { return rrFixedLen + 4*len(r.Slots) }

// RecordedCount returns how many slots have been recorded, derived from
// the pointer. A corrupt pointer below the minimum yields zero.
func (r *RecordRoute) RecordedCount() int {
	if int(r.Pointer) <= rrFirstPointer-1 {
		return 0
	}
	n := (int(r.Pointer) - rrFirstPointer) / 4
	if n > len(r.Slots) {
		n = len(r.Slots)
	}
	return n
}

// Recorded returns the recorded addresses in the order they were stamped.
// The returned slice aliases Slots.
func (r *RecordRoute) Recorded() []netip.Addr { return r.Slots[:r.RecordedCount()] }

// Remaining returns the number of free slots.
func (r *RecordRoute) Remaining() int { return len(r.Slots) - r.RecordedCount() }

// Full reports whether no free slots remain, i.e. the pointer exceeds the
// option length — the test RFC 791 prescribes for forwarding routers.
func (r *RecordRoute) Full() bool { return int(r.Pointer) > r.wireLen() }

// Record stamps addr into the next free slot and advances the pointer,
// returning false (and leaving the option unchanged) if the option is
// full or addr is not IPv4. This is the router-side stamping operation.
func (r *RecordRoute) Record(addr netip.Addr) bool {
	if r.Full() {
		return false
	}
	idx := r.RecordedCount()
	if idx >= len(r.Slots) {
		return false
	}
	addr = addr.Unmap()
	if !addr.Is4() {
		return false
	}
	r.Slots[idx] = addr
	r.Pointer += 4
	return true
}

// Contains reports whether addr appears among the recorded slots.
func (r *RecordRoute) Contains(addr netip.Addr) bool {
	addr = addr.Unmap()
	for _, a := range r.Recorded() {
		if a == addr {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the option.
func (r *RecordRoute) Clone() *RecordRoute {
	c := &RecordRoute{Pointer: r.Pointer, Slots: make([]netip.Addr, len(r.Slots))}
	copy(c.Slots, r.Slots)
	return c
}

// Option serializes the Record Route into a raw Option TLV. A zero-slot
// option (length 3, permanently full) is wire-legal and accepted.
func (r *RecordRoute) Option() (Option, error) {
	return r.AppendOption(make([]byte, 0, 1+4*len(r.Slots)))
}

// AppendOption is Option with the TLV's data appended to buf, so a node
// answering probes can serialize into scratch it owns.
func (r *RecordRoute) AppendOption(buf []byte) (Option, error) {
	if len(r.Slots) > MaxRRSlots {
		return Option{}, fmt.Errorf("%w: record route with %d slots", ErrBadHeader, len(r.Slots))
	}
	start := len(buf)
	buf = append(buf, r.Pointer)
	for i, a := range r.Slots {
		b, ok := addr4(a)
		if !ok {
			return Option{}, fmt.Errorf("%w: slot %d is %v", ErrNotIPv4, i, a)
		}
		buf = append(buf, b[:]...)
	}
	return Option{Type: OptRecordRoute, Data: buf[start:]}, nil
}

// DecodeRecordRoute parses a raw Option into the receiver, reusing the
// Slots slice when its capacity allows. It rejects options whose type is
// not Record Route or whose data is not pointer + whole 4-byte slots.
func (r *RecordRoute) DecodeRecordRoute(o Option) error {
	if o.Type != OptRecordRoute {
		return fmt.Errorf("%w: option type %v is not record route", ErrBadHeader, o.Type)
	}
	if len(o.Data) < 1 || (len(o.Data)-1)%4 != 0 {
		return fmt.Errorf("%w: record route data length %d", ErrBadHeader, len(o.Data))
	}
	n := (len(o.Data) - 1) / 4
	if n > MaxRRSlots {
		return fmt.Errorf("%w: record route with %d slots", ErrBadHeader, n)
	}
	r.Pointer = o.Data[0]
	if cap(r.Slots) >= n {
		r.Slots = r.Slots[:n]
	} else {
		r.Slots = make([]netip.Addr, n)
	}
	for i := 0; i < n; i++ {
		var b [4]byte
		copy(b[:], o.Data[1+4*i:])
		r.Slots[i] = netip.AddrFrom4(b)
	}
	// A pointer below the minimum or not slot-aligned is corrupt.
	if r.Pointer < rrFirstPointer || (r.Pointer-rrFirstPointer)%4 != 0 {
		return fmt.Errorf("%w: record route pointer %d", ErrBadHeader, r.Pointer)
	}
	return nil
}

// FindRecordRoute locates the first Record Route option in opts and
// decodes it into r, returning false if none is present.
func (r *RecordRoute) FindRecordRoute(opts []Option) (bool, error) {
	for _, o := range opts {
		if o.Type == OptRecordRoute {
			if err := r.DecodeRecordRoute(o); err != nil {
				return true, err
			}
			return true, nil
		}
	}
	return false, nil
}
