package analysis

import (
	"net/netip"
	"strings"
	"testing"
)

// asnBySecondOctet resolves 10.N.x.x to ASN N, everything else to -1.
func asnBySecondOctet(h netip.Addr) int {
	b := h.As4()
	if b[0] != 10 {
		return -1
	}
	return int(b[1])
}

func TestASPathCollapsesAndSkips(t *testing.T) {
	hops := []netip.Addr{
		a("10.1.0.1"), a("10.1.0.2"), // AS 1 twice
		a("192.168.0.1"), // unresolvable
		a("10.2.0.1"),    // AS 2
		a("10.1.0.9"),    // AS 1 again (non-consecutive: kept)
	}
	got := ASPath(hops, asnBySecondOctet)
	want := []int{1, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("path = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path = %v, want %v", got, want)
		}
	}
}

func TestAuditStampingCategories(t *testing.T) {
	// AS 1 always stamps, AS 2 never, AS 3 sometimes. Dest is in AS 9.
	pairs := []TraceRRPair{
		{
			Dst:            a("10.9.0.1"),
			TracerouteHops: []netip.Addr{a("10.1.0.1"), a("10.2.0.1"), a("10.3.0.1")},
			RRHops:         []netip.Addr{a("10.1.0.5"), a("10.3.0.5"), a("10.9.0.1")},
		},
		{
			Dst:            a("10.9.0.2"),
			TracerouteHops: []netip.Addr{a("10.1.0.1"), a("10.2.0.1"), a("10.3.0.1")},
			RRHops:         []netip.Addr{a("10.1.0.5")},
		},
	}
	audit := AuditStamping(pairs, asnBySecondOctet)
	if len(audit.Always) != 1 || audit.Always[0] != 1 {
		t.Errorf("Always = %v", audit.Always)
	}
	if len(audit.Never) != 1 || audit.Never[0] != 2 {
		t.Errorf("Never = %v", audit.Never)
	}
	if len(audit.Sometimes) != 1 || audit.Sometimes[0] != 3 {
		t.Errorf("Sometimes = %v", audit.Sometimes)
	}
	if st := audit.PerAS[2]; st.InTraceroute != 2 || st.AlsoInRR != 0 {
		t.Errorf("AS2 stats %+v", st)
	}
	// The destination AS must not be audited.
	if _, ok := audit.PerAS[9]; ok {
		t.Error("destination AS included in audit")
	}
}

func TestTable1BuildAndRender(t *testing.T) {
	dests := []DestInfo{
		{Addr: a("10.1.0.1"), ASN: 1, Type: "Transit/Access"},
		{Addr: a("10.1.1.1"), ASN: 1, Type: "Transit/Access"},
		{Addr: a("10.2.0.1"), ASN: 2, Type: "Enterprise"},
		{Addr: a("10.3.0.1"), ASN: 3, Type: "Content"},
	}
	ping := map[netip.Addr]bool{a("10.1.0.1"): true, a("10.1.1.1"): true, a("10.2.0.1"): true}
	rr := map[netip.Addr]bool{a("10.1.0.1"): true}
	tbl := BuildTable1(dests, ping, rr)

	total := tbl.ByIP[TotalLabel]
	if total.Probed != 4 || total.PingResponsive != 3 || total.RRResponsive != 1 {
		t.Errorf("ByIP total = %+v", total)
	}
	ta := tbl.ByIP["Transit/Access"]
	if ta.Probed != 2 || ta.RRResponsive != 1 {
		t.Errorf("ByIP T/A = %+v", ta)
	}
	asTotal := tbl.ByAS[TotalLabel]
	if asTotal.Probed != 3 || asTotal.PingResponsive != 2 || asTotal.RRResponsive != 1 {
		t.Errorf("ByAS total = %+v", asTotal)
	}
	if got := total.RRRatio(); got < 0.33 || got > 0.34 {
		t.Errorf("RRRatio = %v", got)
	}

	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"By IP", "By AS", "Transit/Access", "Enterprise", "All Probed", "RR-Responsive"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable1RRRatioZeroDivision(t *testing.T) {
	var c Table1Cell
	if c.RRRatio() != 0 {
		t.Error("zero-ping cell ratio not 0")
	}
}
