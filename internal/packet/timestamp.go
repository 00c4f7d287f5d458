package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// TSFlag selects the Internet Timestamp option's mode (RFC 791 §3.1).
type TSFlag uint8

const (
	// TSOnly records 32-bit timestamps only.
	TSOnly TSFlag = 0
	// TSAddr records (address, timestamp) pairs.
	TSAddr TSFlag = 1
	// TSPrespecified records timestamps only at sender-specified
	// addresses.
	TSPrespecified TSFlag = 3
)

// String names the flag.
func (f TSFlag) String() string {
	switch f {
	case TSOnly:
		return "ts-only"
	case TSAddr:
		return "ts-addr"
	case TSPrespecified:
		return "ts-prespecified"
	default:
		return fmt.Sprintf("ts-flag(%d)", uint8(f))
	}
}

// tsFixedLen covers type, length, pointer, and overflow/flag octets.
const tsFixedLen = 4

// TSEntry is one recorded (address, timestamp) pair; Addr is invalid in
// TSOnly mode.
type TSEntry struct {
	Addr netip.Addr
	// Millis is milliseconds since midnight UT per RFC 791; the
	// simulator uses virtual-clock milliseconds.
	Millis uint32
}

// Timestamp is a decoded Internet Timestamp option.
//
// Like RecordRoute, the struct carries the full slot area: Entries
// holds every slot in wire order, with the recorded prefix determined
// by the pointer. In TSPrespecified mode the sender fills the address
// of every slot; routers complete the matching timestamps.
type Timestamp struct {
	// Flag is the option mode.
	Flag TSFlag
	// Pointer is the 1-based octet offset of the next free slot
	// (minimum 5).
	Pointer uint8
	// Overflow counts routers that could not register (4 bits).
	Overflow uint8
	// Entries are the slots in wire order.
	Entries []TSEntry
}

// tsSlotSize returns the per-slot octet count for the mode.
func (f TSFlag) slotSize() int {
	if f == TSOnly {
		return 4
	}
	return 8
}

// NewTimestamp returns an empty option with n slots. It panics if the
// option cannot fit the IPv4 options area — slot counts are programmer
// constants, not wire input.
func NewTimestamp(flag TSFlag, n int) *Timestamp {
	if n < 1 || tsFixedLen+n*flag.slotSize() > MaxOptionsLen {
		panic(fmt.Sprintf("packet: timestamp option with %d %v slots does not fit", n, flag))
	}
	ts := &Timestamp{Flag: flag, Pointer: tsFixedLen + 1, Entries: make([]TSEntry, n)}
	zero := netip.AddrFrom4([4]byte{})
	for i := range ts.Entries {
		ts.Entries[i].Addr = zero
	}
	return ts
}

// EmptyTimestampOption returns the raw option of NewTimestamp(flag, n)
// with its data appended to buf (see EmptyRecordRouteOption). It panics
// like NewTimestamp when the option cannot fit.
func EmptyTimestampOption(buf []byte, flag TSFlag, n int) Option {
	if n < 1 || tsFixedLen+n*flag.slotSize() > MaxOptionsLen {
		panic(fmt.Sprintf("packet: timestamp option with %d %v slots does not fit", n, flag))
	}
	buf = append(buf, tsFixedLen+1, byte(flag))
	return Option{Type: OptTimestamp, Data: append(buf, make([]byte, n*flag.slotSize())...)}
}

// NewTimestampPrespecified returns a TSPrespecified option asking the
// named hops for timestamps.
func NewTimestampPrespecified(addrs []netip.Addr) *Timestamp {
	ts := NewTimestamp(TSPrespecified, len(addrs))
	for i, a := range addrs {
		ts.Entries[i].Addr = a
	}
	return ts
}

// wireLen returns the option length octet value.
func (t *Timestamp) wireLen() int { return tsFixedLen + len(t.Entries)*t.Flag.slotSize() }

// RecordedCount derives the number of completed slots from the pointer.
func (t *Timestamp) RecordedCount() int {
	if int(t.Pointer) <= tsFixedLen {
		return 0
	}
	n := (int(t.Pointer) - tsFixedLen - 1) / t.Flag.slotSize()
	if n > len(t.Entries) {
		n = len(t.Entries)
	}
	return n
}

// Recorded returns the completed entries; it aliases Entries.
func (t *Timestamp) Recorded() []TSEntry { return t.Entries[:t.RecordedCount()] }

// Full reports whether no slots remain.
func (t *Timestamp) Full() bool { return int(t.Pointer) > t.wireLen() }

// Record registers a hop. In TSOnly mode only millis is stored; in
// TSAddr mode the hop's address accompanies it; in TSPrespecified mode
// the timestamp is stored only when addr matches the next prespecified
// slot. A full option increments Overflow (saturating at 15) and
// returns false, as RFC 791 specifies.
func (t *Timestamp) Record(addr netip.Addr, millis uint32) bool {
	if t.Full() {
		if t.Overflow < 15 {
			t.Overflow++
		}
		return false
	}
	idx := t.RecordedCount()
	switch t.Flag {
	case TSOnly:
		t.Entries[idx] = TSEntry{Addr: netip.AddrFrom4([4]byte{}), Millis: millis}
	case TSAddr:
		addr = addr.Unmap()
		if !addr.Is4() {
			return false
		}
		t.Entries[idx] = TSEntry{Addr: addr, Millis: millis}
	case TSPrespecified:
		if t.Entries[idx].Addr != addr.Unmap() {
			return false // not our turn; no pointer movement
		}
		t.Entries[idx].Millis = millis
	default:
		return false
	}
	t.Pointer += uint8(t.Flag.slotSize())
	return true
}

// Option serializes the timestamp option to a raw TLV.
func (t *Timestamp) Option() (Option, error) {
	return t.AppendOption(make([]byte, 0, 2+len(t.Entries)*t.Flag.slotSize()))
}

// AppendOption is Option with the TLV's data appended to buf (see
// RecordRoute.AppendOption).
func (t *Timestamp) AppendOption(buf []byte) (Option, error) {
	if t.Flag != TSOnly && t.Flag != TSAddr && t.Flag != TSPrespecified {
		return Option{}, fmt.Errorf("%w: timestamp flag %d", ErrBadHeader, t.Flag)
	}
	start := len(buf)
	buf = append(buf, t.Pointer, t.Overflow<<4|uint8(t.Flag))
	for i, e := range t.Entries {
		if t.Flag != TSOnly {
			b, ok := addr4(e.Addr)
			if !ok {
				return Option{}, fmt.Errorf("%w: slot %d is %v", ErrNotIPv4, i, e.Addr)
			}
			buf = append(buf, b[:]...)
		}
		buf = binary.BigEndian.AppendUint32(buf, e.Millis)
	}
	return Option{Type: OptTimestamp, Data: buf[start:]}, nil
}

// DecodeTimestamp parses a raw Option into the receiver, reusing
// Entries when capacity allows.
func (t *Timestamp) DecodeTimestamp(o Option) error {
	if o.Type != OptTimestamp {
		return fmt.Errorf("%w: option type %v is not timestamp", ErrBadHeader, o.Type)
	}
	if len(o.Data) < 2 {
		return fmt.Errorf("%w: timestamp data length %d", ErrTruncated, len(o.Data))
	}
	t.Pointer = o.Data[0]
	t.Overflow = o.Data[1] >> 4
	t.Flag = TSFlag(o.Data[1] & 0xf)
	slot := t.Flag.slotSize()
	if t.Flag != TSOnly && t.Flag != TSAddr && t.Flag != TSPrespecified {
		return fmt.Errorf("%w: timestamp flag %d", ErrBadHeader, t.Flag)
	}
	body := o.Data[2:]
	if len(body)%slot != 0 {
		return fmt.Errorf("%w: timestamp body length %d for %v", ErrBadHeader, len(body), t.Flag)
	}
	n := len(body) / slot
	if cap(t.Entries) >= n {
		t.Entries = t.Entries[:n]
	} else {
		t.Entries = make([]TSEntry, n)
	}
	for i := 0; i < n; i++ {
		off := i * slot
		if t.Flag == TSOnly {
			t.Entries[i] = TSEntry{
				Addr:   netip.AddrFrom4([4]byte{}),
				Millis: binary.BigEndian.Uint32(body[off:]),
			}
		} else {
			var b [4]byte
			copy(b[:], body[off:])
			t.Entries[i] = TSEntry{
				Addr:   netip.AddrFrom4(b),
				Millis: binary.BigEndian.Uint32(body[off+4:]),
			}
		}
	}
	if t.Pointer < tsFixedLen+1 || (int(t.Pointer)-tsFixedLen-1)%slot != 0 {
		return fmt.Errorf("%w: timestamp pointer %d", ErrBadHeader, t.Pointer)
	}
	return nil
}

// FindTimestamp locates the first Timestamp option in opts and decodes
// it into t, returning false if none is present.
func (t *Timestamp) FindTimestamp(opts []Option) (bool, error) {
	for _, o := range opts {
		if o.Type == OptTimestamp {
			if err := t.DecodeTimestamp(o); err != nil {
				return true, err
			}
			return true, nil
		}
	}
	return false, nil
}

// TimestampOption finds the header's Timestamp option, if any.
func (h *IPv4) TimestampOption(ts *Timestamp) (bool, error) {
	return ts.FindTimestamp(h.Options)
}

// SetTimestamp replaces any existing Timestamp option in the header
// with the serialization of ts (or appends one).
func (h *IPv4) SetTimestamp(ts *Timestamp) error {
	opt, err := ts.Option()
	if err != nil {
		return err
	}
	for i := range h.Options {
		if h.Options[i].Type == OptTimestamp {
			h.Options[i] = opt
			return nil
		}
	}
	h.Options = append(h.Options, opt)
	return nil
}
