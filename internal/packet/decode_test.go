package packet

import "testing"

// TestParsedDecodeReusedAllocs pins the reusable decoder's contract: a
// Parsed that has decoded one ping-RR echo decodes the next without
// allocating — the per-packet cost every simulated host and prober pays.
func TestParsedDecodeReusedAllocs(t *testing.T) {
	rr := NewRecordRoute(9)
	for _, hop := range []string{"10.0.1.1", "10.0.2.1", "10.0.3.1", "10.0.4.1"} {
		rr.Record(addr(hop))
	}
	hdr := IPv4{TTL: 32, Protocol: ProtocolICMP, Src: addr("10.0.0.1"), Dst: addr("10.0.9.9")}
	if err := hdr.SetRecordRoute(rr); err != nil {
		t.Fatal(err)
	}
	wire, err := hdr.Marshal(NewEchoRequest(7, 9, []byte("payload")).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	var p Parsed
	decode := func() {
		if err := p.Decode(wire); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("a reused Parsed allocates %v times per ping-RR echo, want 0", allocs)
	}
}
