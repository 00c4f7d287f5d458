package packet

import (
	"net/netip"
	"testing"
)

// tsOption is an Internet Timestamp option (type 68), which the toolkit
// carries as opaque bytes like any option but Record Route: pointer,
// overflow/flag octet, body, then pad zero octets.
func tsOption(pointer, flags byte, pad int, body ...byte) Option {
	return Option{Type: 68, Data: append(append([]byte{pointer, flags}, body...), make([]byte, pad)...)}
}

// seedPackets builds a varied corpus of valid packets for the fuzzers.
func seedPackets(t interface{ Fatal(...any) }) [][]byte {
	var seeds [][]byte
	add := func(wire []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, wire)
	}
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")

	plain := &IPv4{TTL: 64, Protocol: ProtocolICMP, Src: src, Dst: dst}
	add(plain.Marshal(NewEchoRequest(1, 2, []byte("data")).Marshal()))

	rr := NewRecordRoute(9)
	rr.Record(netip.MustParseAddr("192.0.2.1"))
	withRR := &IPv4{TTL: 32, Protocol: ProtocolICMP, Src: src, Dst: dst}
	if err := withRR.SetRecordRoute(rr); err != nil {
		t.Fatal(err)
	}
	add(withRR.Marshal(NewEchoRequest(3, 4, nil).Marshal()))

	opaque := &IPv4{TTL: 16, Protocol: ProtocolICMP, Src: src, Dst: dst,
		Options: []Option{tsOption(13, 1, 24, 192, 0, 2, 9, 0, 0, 0, 123)}}
	add(opaque.Marshal(NewEchoRequest(5, 6, nil).Marshal()))

	udp := &UDP{SrcPort: 1000, DstPort: 2000, Payload: []byte("u")}
	uw, err := udp.Marshal(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	udpIP := &IPv4{TTL: 8, Protocol: ProtocolUDP, Src: src, Dst: dst}
	add(udpIP.Marshal(uw))

	e := NewError(ICMPTimeExceeded, CodeTTLExceeded, seeds[1][:60], seeds[1][60:])
	errIP := &IPv4{TTL: 64, Protocol: ProtocolICMP, Src: dst, Dst: src}
	add(errIP.Marshal(e.Marshal()))
	return seeds
}

// FuzzParsedDecode: the full-packet parser must never panic and must
// re-encode anything it accepts into something it accepts again.
func FuzzParsedDecode(f *testing.F) {
	for _, s := range seedPackets(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Parsed
		if err := p.Decode(data); err != nil {
			return
		}
		// Accepted: the header must re-encode and re-decode cleanly.
		var payload []byte
		switch {
		case p.HasICMP:
			payload = p.ICMP.Marshal()
		case p.HasUDP:
			var err error
			payload, err = p.UDP.Marshal(p.IP.Src, p.IP.Dst)
			if err != nil {
				t.Fatalf("re-encode UDP: %v", err)
			}
		default:
			payload = p.Payload
		}
		wire, err := p.IP.Marshal(payload)
		if err != nil {
			t.Fatalf("re-encode accepted packet: %v", err)
		}
		var q Parsed
		if err := q.Decode(wire); err != nil {
			t.Fatalf("re-decode re-encoded packet: %v", err)
		}
	})
}

// FuzzRecordRouteDecode: arbitrary RR option bytes must be rejected or
// produce a structurally consistent option.
func FuzzRecordRouteDecode(f *testing.F) {
	rr := NewRecordRoute(9)
	rr.Record(netip.MustParseAddr("10.0.0.1"))
	opt, _ := rr.Option()
	f.Add(opt.Data)
	f.Add([]byte{4, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var back RecordRoute
		if err := back.DecodeRecordRoute(Option{Type: OptRecordRoute, Data: data}); err != nil {
			return
		}
		if back.RecordedCount() > back.NumSlots() {
			t.Fatalf("recorded %d > slots %d", back.RecordedCount(), back.NumSlots())
		}
		if _, err := back.Option(); err != nil {
			t.Fatalf("accepted option fails to re-encode: %v", err)
		}
	})
}
