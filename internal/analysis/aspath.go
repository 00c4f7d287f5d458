package analysis

import (
	"net/netip"
	"sort"
)

// ASPath collapses a hop-address sequence to its AS-level path using the
// asnOf resolver (-1 for unresolvable hops, which are skipped).
// Consecutive duplicates are merged.
func ASPath(hops []netip.Addr, asnOf func(netip.Addr) int) []int {
	var out []int
	for _, h := range hops {
		asn := asnOf(h)
		if asn < 0 {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != asn {
			out = append(out, asn)
		}
	}
	return out
}

// TraceRRPair is one destination's traceroute and ping-RR measured from
// the same vantage point, the unit of §3.5's stamping audit.
type TraceRRPair struct {
	Dst            netip.Addr
	TracerouteHops []netip.Addr // responding traceroute hops, in order
	RRHops         []netip.Addr // recorded RR slots, in order
}

// StampStats counts, per AS, how often it appeared in a traceroute and
// how often the corresponding ping-RR also recorded it.
type StampStats struct {
	ASN          int
	InTraceroute int
	AlsoInRR     int
}

// StampAudit is the outcome of the §3.5 comparison.
type StampAudit struct {
	// PerAS holds counts for every AS seen in any traceroute.
	PerAS map[int]*StampStats
	// Always lists ASes present in RR every time they appeared in a
	// traceroute; Sometimes were present in some but not all; Never
	// were never present — the suspected no-stamp configurations.
	Always, Sometimes, Never []int
}

// AuditStamping compares traceroute-derived and RR-derived AS paths over
// the given pairs. The destination's own AS is excluded (its presence is
// governed by reachability, not stamping policy); so is the VP-side
// first AS when the RR option was already full before reaching it.
func AuditStamping(pairs []TraceRRPair, asnOf func(netip.Addr) int) *StampAudit {
	audit := &StampAudit{PerAS: make(map[int]*StampStats)}
	for _, p := range pairs {
		destASN := asnOf(p.Dst)
		tracePath := ASPath(p.TracerouteHops, asnOf)
		rrSet := make(map[int]bool)
		for _, asn := range ASPath(p.RRHops, asnOf) {
			rrSet[asn] = true
		}
		for _, asn := range tracePath {
			if asn == destASN {
				continue
			}
			st := audit.PerAS[asn]
			if st == nil {
				st = &StampStats{ASN: asn}
				audit.PerAS[asn] = st
			}
			st.InTraceroute++
			if rrSet[asn] {
				st.AlsoInRR++
			}
		}
	}
	asns := make([]int, 0, len(audit.PerAS))
	for asn := range audit.PerAS {
		asns = append(asns, asn)
	}
	sort.Ints(asns)
	for _, asn := range asns {
		st := audit.PerAS[asn]
		switch {
		case st.AlsoInRR == 0:
			audit.Never = append(audit.Never, asn)
		case st.AlsoInRR == st.InTraceroute:
			audit.Always = append(audit.Always, asn)
		default:
			audit.Sometimes = append(audit.Sometimes, asn)
		}
	}
	return audit
}
