package packet

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
)

var updateCorpus = flag.Bool("updatecorpus", false, "rewrite the committed seed corpus under testdata/fuzz")

// quotedErrorSeeds builds ICMP error packets whose quoted datagrams
// carry the option-bearing headers the study depends on reading back:
// RR-bearing echoes (ping-RR past the 9th hop), echoes with an option
// carried opaquely, and RR-UDP probes answered with port unreachable.
func quotedErrorSeeds(t interface{ Fatal(...any) }) [][]byte {
	var seeds [][]byte
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.9.0.1")
	rtr := netip.MustParseAddr("192.0.2.1")

	wrap := func(e *ICMP) {
		errIP := &IPv4{TTL: 64, Protocol: ProtocolICMP, Src: rtr, Dst: src}
		wire, err := errIP.Marshal(e.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, wire)
	}
	split := func(hdr *IPv4, payload []byte) (quoteHdr, quotePay []byte) {
		wire, err := hdr.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		return wire[:hdr.HeaderLen()], wire[hdr.HeaderLen():]
	}

	// TTL-exceeded quoting a ping-RR with three stamps.
	rr := NewRecordRoute(9)
	for i := 0; i < 3; i++ {
		rr.Record(rtr)
	}
	rrHdr := &IPv4{TTL: 1, ID: 7, Protocol: ProtocolICMP, Src: src, Dst: dst}
	if err := rrHdr.SetRecordRoute(rr); err != nil {
		t.Fatal(err)
	}
	qh, qp := split(rrHdr, NewEchoRequest(7, 3, []byte("probe")).Marshal())
	wrap(NewError(ICMPTimeExceeded, CodeTTLExceeded, qh, qp))

	// Port unreachable quoting an RR-UDP probe.
	udp := &UDP{SrcPort: 33434, DstPort: 33435, Payload: []byte("u")}
	uw, err := udp.Marshal(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	udpHdr := &IPv4{TTL: 32, ID: 8, Protocol: ProtocolUDP, Src: src, Dst: dst}
	if err := udpHdr.SetRecordRoute(NewRecordRoute(9)); err != nil {
		t.Fatal(err)
	}
	qh, qp = split(udpHdr, uw)
	wrap(NewError(ICMPDestUnreach, CodePortUnreachable, qh, qp))

	// TTL-exceeded quoting an echo with an Internet Timestamp option.
	tsHdr := &IPv4{TTL: 1, ID: 9, Protocol: ProtocolICMP, Src: src, Dst: dst,
		Options: []Option{tsOption(13, 1, 24, 192, 0, 2, 1, 0, 0, 4, 0xd2)}}
	qh, qp = split(tsHdr, NewEchoRequest(9, 1, nil).Marshal())
	wrap(NewError(ICMPTimeExceeded, CodeTTLExceeded, qh, qp))

	// TTL-exceeded quoting an optionless echo.
	plain := &IPv4{TTL: 1, ID: 10, Protocol: ProtocolICMP, Src: src, Dst: dst}
	qh, qp = split(plain, NewEchoRequest(10, 2, nil).Marshal())
	wrap(NewError(ICMPTimeExceeded, CodeTTLExceeded, qh, qp))

	return seeds
}

// TestUpdateQuotedFuzzCorpus rewrites the committed seed corpora for
// FuzzDecodeICMPQuoted and FuzzChecksumUpdate (run with -updatecorpus
// after changing the seed builders). The files use the standard `go test
// fuzz v1` encoding, so both plain `go test` runs and -fuzz campaigns
// pick them up.
func TestUpdateQuotedFuzzCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -updatecorpus to rewrite testdata/fuzz seeds")
	}
	write := func(target string, i int, body string) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(path, []byte("go test fuzz v1\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
	for i, s := range quotedErrorSeeds(t) {
		write("FuzzDecodeICMPQuoted", i, fmt.Sprintf("[]byte(%q)\n", s))
	}
	// Each header with its options at the first octet past the fixed
	// header and at an odd offset.
	for i, s := range checksumSeeds(t) {
		write("FuzzChecksumUpdate", i, fmt.Sprintf("[]byte(%q)\nbyte(%q)\nuint32(%d)\nuint32(%d)\n", s, byte(i%2), 0xc0000201, 1000*i+i%4/2))
	}
}

// FuzzDecodeICMPQuoted drives the full reply-read path the prober uses:
// decode an IP packet, its ICMP message, the quoted datagram inside an
// error, and the RR option on the quoted header. Nothing may panic,
// and any structure the decoders accept must be internally consistent
// and re-encodable.
func FuzzDecodeICMPQuoted(f *testing.F) {
	for _, s := range quotedErrorSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ip IPv4
		payload, err := ip.Decode(data)
		if err != nil || ip.Protocol != ProtocolICMP {
			return
		}
		var m ICMP
		if err := m.Decode(payload); err != nil {
			return
		}
		if !m.Type.IsError() {
			return
		}
		var quoted IPv4
		transport, err := m.QuotedDatagram(&quoted)
		if err != nil {
			return
		}
		// The transport accessors must tolerate any quote length.
		QuotedEcho(transport)
		QuotedUDP(transport)

		var rr RecordRoute
		if ok, err := quoted.RecordRouteOption(&rr); err == nil && ok {
			if rr.RecordedCount() > rr.NumSlots() {
				t.Fatalf("quoted RR recorded %d > slots %d", rr.RecordedCount(), rr.NumSlots())
			}
			if _, err := rr.Option(); err != nil {
				t.Fatalf("accepted quoted RR fails to re-encode: %v", err)
			}
		}
		// An accepted quoted header must survive a re-encode round trip.
		wire, err := quoted.Marshal(transport)
		if err != nil {
			return // some decodable quotes (e.g. odd option sets) aren't canonical
		}
		var again IPv4
		if _, err := again.DecodeHeaderOnly(wire); err != nil {
			t.Fatalf("re-encoded quoted header rejected: %v", err)
		}
	})
}
