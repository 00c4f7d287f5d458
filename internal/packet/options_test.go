package packet

import (
	"errors"
	"net/netip"
	"testing"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestNewRecordRouteEmpty(t *testing.T) {
	rr := NewRecordRoute(9)
	if got := rr.NumSlots(); got != 9 {
		t.Fatalf("NumSlots = %d, want 9", got)
	}
	if got := rr.RecordedCount(); got != 0 {
		t.Errorf("RecordedCount = %d, want 0", got)
	}
	if rr.Full() {
		t.Error("fresh option reports Full")
	}
	if got := rr.Remaining(); got != 9 {
		t.Errorf("Remaining = %d, want 9", got)
	}
	if rr.Pointer != 4 {
		t.Errorf("Pointer = %d, want 4", rr.Pointer)
	}
}

func TestNewRecordRoutePanicsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRecordRoute(%d) did not panic", n)
				}
			}()
			NewRecordRoute(n)
		}()
	}
}

func TestRecordRouteStampingSequence(t *testing.T) {
	rr := NewRecordRoute(3)
	hops := []netip.Addr{addr("10.0.0.1"), addr("10.0.0.2"), addr("10.0.0.3")}
	for i, h := range hops {
		if !rr.Record(h) {
			t.Fatalf("Record(%v) at slot %d returned false", h, i)
		}
		if got := rr.RecordedCount(); got != i+1 {
			t.Fatalf("after %d stamps RecordedCount = %d", i+1, got)
		}
	}
	if !rr.Full() {
		t.Error("option with all slots stamped is not Full")
	}
	if rr.Record(addr("10.0.0.4")) {
		t.Error("Record succeeded on a full option")
	}
	got := rr.Recorded()
	for i := range hops {
		if got[i] != hops[i] {
			t.Errorf("Recorded()[%d] = %v, want %v", i, got[i], hops[i])
		}
	}
	// The final pointer must exceed the option length: 3 + 4*3 = 15, so 16.
	if rr.Pointer != 16 {
		t.Errorf("full pointer = %d, want 16", rr.Pointer)
	}
}

func TestRecordRouteNineHopLimit(t *testing.T) {
	// The paper's central constraint: at most nine addresses fit.
	rr := NewRecordRoute(MaxRRSlots)
	n := 0
	for rr.Record(addr("192.0.2.1")) {
		n++
		if n > MaxRRSlots {
			t.Fatal("recorded more than MaxRRSlots addresses")
		}
	}
	if n != 9 {
		t.Errorf("recorded %d addresses, want 9", n)
	}
}

func TestRecordRouteRejectsNonIPv4(t *testing.T) {
	rr := NewRecordRoute(2)
	if rr.Record(netip.MustParseAddr("2001:db8::1")) {
		t.Error("Record accepted an IPv6 address")
	}
	if got := rr.RecordedCount(); got != 0 {
		t.Errorf("failed Record advanced the pointer: count %d", got)
	}
}

func TestRecordRouteContains(t *testing.T) {
	rr := NewRecordRoute(4)
	rr.Record(addr("10.1.1.1"))
	rr.Record(addr("10.2.2.2"))
	if !rr.Contains(addr("10.2.2.2")) {
		t.Error("Contains missed a recorded address")
	}
	if rr.Contains(addr("0.0.0.0")) {
		t.Error("Contains matched an unrecorded (zero) slot")
	}
}

func TestRecordRouteOptionRoundTrip(t *testing.T) {
	rr := NewRecordRoute(5)
	rr.Record(addr("198.51.100.7"))
	rr.Record(addr("203.0.113.9"))
	opt, err := rr.Option()
	if err != nil {
		t.Fatalf("Option: %v", err)
	}
	if opt.Type != OptRecordRoute {
		t.Fatalf("option type %v", opt.Type)
	}
	if len(opt.Data) != 1+4*5 {
		t.Fatalf("option data length %d, want 21", len(opt.Data))
	}
	var back RecordRoute
	if err := back.DecodeRecordRoute(opt); err != nil {
		t.Fatalf("DecodeRecordRoute: %v", err)
	}
	if back.Pointer != rr.Pointer {
		t.Errorf("pointer %d != %d", back.Pointer, rr.Pointer)
	}
	if back.RecordedCount() != 2 {
		t.Fatalf("recorded count %d, want 2", back.RecordedCount())
	}
	if back.Recorded()[0] != addr("198.51.100.7") || back.Recorded()[1] != addr("203.0.113.9") {
		t.Errorf("recorded = %v", back.Recorded())
	}
}

func TestDecodeRecordRouteRejectsMalformed(t *testing.T) {
	tests := []struct {
		name string
		opt  Option
	}{
		{"wrong type", Option{Type: OptNOP}},
		{"empty data", Option{Type: OptRecordRoute, Data: nil}},
		{"ragged slots", Option{Type: OptRecordRoute, Data: []byte{4, 1, 2, 3}}},
		{"pointer too small", Option{Type: OptRecordRoute, Data: []byte{2, 0, 0, 0, 0}}},
		{"pointer misaligned", Option{Type: OptRecordRoute, Data: []byte{5, 0, 0, 0, 0}}},
		{"too many slots", Option{Type: OptRecordRoute, Data: make([]byte, 1+4*10)}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var rr RecordRoute
			if tc.name == "too many slots" {
				tc.opt.Data[0] = 4
			}
			if err := rr.DecodeRecordRoute(tc.opt); err == nil {
				t.Error("DecodeRecordRoute accepted malformed option")
			}
		})
	}
}

func TestParseOptionsWalk(t *testing.T) {
	// NOP, RR(1 slot), EOL, then trailing garbage that must be ignored.
	area := []byte{
		byte(OptNOP),
		byte(OptRecordRoute), 7, 4, 0, 0, 0, 0,
		byte(OptEndOfList),
		0xde, 0xad,
	}
	opts, err := parseOptions(nil, area)
	if err != nil {
		t.Fatalf("parseOptions: %v", err)
	}
	if len(opts) != 2 {
		t.Fatalf("parsed %d options, want 2 (EOL stops the walk)", len(opts))
	}
	if opts[0].Type != OptNOP || opts[1].Type != OptRecordRoute {
		t.Errorf("types = %v, %v", opts[0].Type, opts[1].Type)
	}
	if len(opts[1].Data) != 5 {
		t.Errorf("rr data length %d, want 5", len(opts[1].Data))
	}
}

func TestParseOptionsErrors(t *testing.T) {
	tests := []struct {
		name string
		area []byte
		want error
	}{
		{"missing length octet", []byte{byte(OptRecordRoute)}, ErrTruncated},
		{"length runs past area", []byte{byte(OptRecordRoute), 40, 4}, ErrBadHeader},
		{"length below minimum", []byte{byte(OptRecordRoute), 1}, ErrBadHeader},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseOptions(nil, tc.area); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestAppendOptionsPadsToWordBoundary(t *testing.T) {
	rr := NewRecordRoute(9)
	opt, err := rr.Option()
	if err != nil {
		t.Fatal(err)
	}
	// A 9-slot RR is 39 bytes; padding must bring the area to 40.
	area, err := appendOptions(nil, []Option{opt})
	if err != nil {
		t.Fatalf("appendOptions: %v", err)
	}
	if len(area) != 40 {
		t.Errorf("padded area = %d bytes, want 40", len(area))
	}
	if area[39] != byte(OptEndOfList) {
		t.Errorf("padding byte = %d, want EOL", area[39])
	}
}

func TestAppendOptionsOverflow(t *testing.T) {
	big := Option{Type: 68, Data: make([]byte, 39)}
	if _, err := appendOptions(nil, []Option{big}); !errors.Is(err, ErrOptionSpace) {
		t.Errorf("err = %v, want ErrOptionSpace", err)
	}
}

func TestRecordRouteClone(t *testing.T) {
	rr := NewRecordRoute(3)
	rr.Record(addr("10.0.0.1"))
	c := rr.Clone()
	c.Record(addr("10.0.0.2"))
	if rr.RecordedCount() != 1 {
		t.Error("mutating clone affected original")
	}
	if c.RecordedCount() != 2 {
		t.Error("clone did not accept a stamp")
	}
}

func TestRecordRoutePartialFillReverseSlots(t *testing.T) {
	// The reverse-traceroute use: a ping-RR that reaches the destination
	// with empty slots has those slots filled on the reverse path. Model:
	// forward path stamps 4, destination + reverse path stamp more.
	rr := NewRecordRoute(9)
	for i := 0; i < 4; i++ {
		rr.Record(addr("10.0.0.1"))
	}
	if rr.Remaining() != 5 {
		t.Fatalf("Remaining = %d, want 5", rr.Remaining())
	}
	rr.Record(addr("192.0.2.99")) // destination stamps itself
	for i := 0; i < 4; i++ {
		if !rr.Record(addr("10.9.9.9")) {
			t.Fatalf("reverse stamp %d failed", i)
		}
	}
	if !rr.Full() {
		t.Error("9 stamps should fill the option")
	}
	if !rr.Contains(addr("192.0.2.99")) {
		t.Error("destination address missing from slots")
	}
}
