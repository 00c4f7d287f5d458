package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"testing"
)

// setChecksum recomputes hdr's header checksum in full.
func setChecksum(hdr []byte) {
	hdr[10], hdr[11] = 0, 0
	binary.BigEndian.PutUint16(hdr[10:], Checksum(hdr))
}

// fuzzHeader makes a valid IPv4 header of raw: its first 20 to 60 bytes,
// a whole number of words, with version, IHL and TotalLength set to fit
// and a correct checksum. A header whose full checksum is 0x0000 keeps
// the 0xFFFF it arrived with, if it did: that verifies too.
func fuzzHeader(raw []byte) []byte {
	n := min(len(raw), 60) &^ 3
	if n < ipv4FixedLen {
		return nil
	}
	h := slices.Clone(raw[:n])
	h[0] = 4<<4 | byte(n/4)
	binary.BigEndian.PutUint16(h[2:], uint16(n))
	arrived := binary.BigEndian.Uint16(h[10:])
	if setChecksum(h); arrived == 0xffff && binary.BigEndian.Uint16(h[10:]) == 0 {
		h[10], h[11] = 0xff, 0xff
	}
	return h
}

// checksumSeeds are headers the router edits — plain, Record Route, and
// opaque Internet Timestamp options — each also in the two forms whose
// checksum is 0x0000 and 0xFFFF (its ID chosen so the other words sum to
// 0xFFFF).
func checksumSeeds(t interface{ Fatal(...any) }) [][]byte {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.9.0.1")
	hop := netip.MustParseAddr("192.0.2.1")
	rr := NewRecordRoute(9)
	rr.Record(hop)
	full := NewRecordRoute(2)
	full.Record(hop)
	full.Record(hop)
	var seeds [][]byte
	for i, set := range []func(*IPv4) error{
		func(*IPv4) error { return nil },
		func(h *IPv4) error { return h.SetRecordRoute(rr) },
		func(h *IPv4) error { return h.SetRecordRoute(full) },
		func(h *IPv4) error { h.Options = []Option{tsOption(13, 1, 24, 192, 0, 2, 1, 0, 0, 0, 7)}; return nil },
		func(h *IPv4) error { h.Options = []Option{tsOption(5, 0xf0, 36)}; return nil },
		func(h *IPv4) error {
			h.Options = []Option{tsOption(5, 3, 0, 192, 0, 2, 1, 0, 0, 0, 0, 10, 0, 0, 1, 0, 0, 0, 0)}
			return nil
		},
	} {
		ip := &IPv4{TTL: byte(1 + 31*i), ID: uint16(i), Protocol: ProtocolICMP, Src: src, Dst: dst}
		if err := set(ip); err != nil {
			t.Fatal(err)
		}
		h, err := ip.AppendHeader(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		zero := slices.Clone(h)
		id := uint32(binary.BigEndian.Uint16(zero[4:])) + uint32(binary.BigEndian.Uint16(zero[10:]))
		binary.BigEndian.PutUint16(zero[4:], uint16(id&0xffff+id>>16))
		if setChecksum(zero); binary.BigEndian.Uint16(zero[10:]) != 0 {
			t.Fatal("seed checksum is not 0x0000")
		}
		ones := slices.Clone(zero)
		ones[10], ones[11] = 0xff, 0xff
		seeds = append(seeds, h, zero, ones)
	}
	return seeds
}

// refStampRR is StampRecordRoute through the option structs, without
// touching the checksum.
func refStampRR(h []byte, at int, addr [4]byte) bool {
	if at+rrFixedLen > len(h) || at+int(h[at+1]) > len(h) || h[at+1] < 2 {
		return false
	}
	var rr RecordRoute
	if rr.DecodeRecordRoute(Option{OptRecordRoute, h[at+2 : at+int(h[at+1])]}) != nil || rr.Full() {
		return false
	}
	rr.Record(netip.AddrFrom4(addr))
	o, _ := rr.Option()
	copy(h[at+2:], o.Data)
	return true
}

// FuzzChecksumUpdate holds the header editors' incremental checksum (RFC
// 1624 eqn. 3) to a full recomputation. For any valid header, each edit
// a forwarding router makes — TTL decrement, a Record Route stamp at
// every pointer — must leave the bytes the option structs write, with the checksum
// Checksum computes over them; and Canonicalize must leave a checksum a
// full computation gives, also to a header that arrived with 0xFFFF.
// Its seeds, checksumSeeds, are committed under testdata/fuzz; their
// last value is not used.
func FuzzChecksumUpdate(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, at uint8, addr, _ uint32) {
		hdr := fuzzHeader(raw)
		if hdr == nil {
			return
		}
		if w, err := ParseWire(hdr); err == nil {
			got := w.Canonicalize(slices.Clone(hdr))
			want := slices.Clone(got)
			setChecksum(want[:w.HdrLen])
			if !bytes.Equal(got, want) {
				t.Fatalf("Canonicalize(%x) = %x, full checksum gives %x", hdr, got, want)
			}
		}
		setChecksum(hdr)
		var a4 [4]byte
		binary.BigEndian.PutUint32(a4[:], addr)
		check := func(what string, h []byte, edit func([]byte) bool, ref func([]byte) bool) {
			t.Helper()
			got, want := slices.Clone(h), slices.Clone(h)
			okGot, okWant := edit(got), ref(want)
			setChecksum(want)
			if okGot != okWant || !bytes.Equal(got, want) {
				t.Fatalf("%s on %x: %v %x, want %v %x", what, h, okGot, got, okWant, want)
			}
		}
		check("DecrementTTL", hdr, func(h []byte) bool { DecrementTTL(h); return true },
			func(h []byte) bool { h[8]--; return true })

		// The option under test starts at pos; its length is drawn from
		// the header, sometimes overrunning it.
		pos := ipv4FixedLen + int(at)%(len(hdr)-ipv4FixedLen+1)
		room := len(hdr) - pos
		if room < rrFixedLen {
			return
		}
		for p := 0; p < 48; p++ {
			h := slices.Clone(hdr)
			h[pos], h[pos+1], h[pos+2] = byte(OptRecordRoute), byte(rrFixedLen+4*(int(hdr[pos+1])%((room-rrFixedLen)/4+2))), byte(p)
			setChecksum(h)
			check(fmt.Sprintf("StampRecordRoute at %d", pos), h,
				func(h []byte) bool { return StampRecordRoute(h, pos, addr) },
				func(h []byte) bool { return refStampRR(h, pos, a4) })
		}
	})
}
