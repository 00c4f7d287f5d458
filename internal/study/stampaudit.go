package study

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/netip"

	"recordroute/internal/analysis"
	"recordroute/internal/measure"
	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

// StampAuditResult is the §3.5 experiment: compare traceroute-derived
// and RR-derived AS paths to find ASes that forward options packets
// without stamping them.
type StampAuditResult struct {
	Audit *analysis.StampAudit
	// PairsCompared counts (VP, destination) measurement pairs.
	PairsCompared int
	// PerVPCap notes the per-VP destination cap applied.
	PerVPCap int
}

// RunStampAudit traceroutes, from each M-Lab VP, up to perVPCap of that
// VP's RR-reachable destinations (chosen at random like the paper's
// 10,000), then aligns the AS paths.
func (s *Study) RunStampAudit(r *Responsiveness, perVPCap int) *StampAuditResult {
	if perVPCap <= 0 {
		perVPCap = 500
	}
	rng := rand.New(rand.NewPCG(s.Opts.ShuffleSeed^0x5a5a, 0x3c3c))

	// Index this VP's RR results by destination for pairing.
	rrByVPDst := make(map[string]map[netip.Addr]probe.Result)
	for vp, rs := range r.PerVP {
		m := make(map[netip.Addr]probe.Result)
		for _, res := range rs {
			m[res.Dst] = res
		}
		rrByVPDst[vp] = m
	}

	// Choose each M-Lab VP's reachable destinations.
	perVP := make(map[string][]netip.Addr)
	for _, name := range s.vpNamesOfKind(topology.MLab) {
		var mine []netip.Addr
		for _, d := range r.Dests {
			st := r.Stats[d]
			if st == nil {
				continue
			}
			if slot, ok := st.SlotsByVP[name]; ok && slot > 0 {
				mine = append(mine, d)
			}
		}
		rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
		if len(mine) > perVPCap {
			mine = mine[:perVPCap]
		}
		perVP[name] = mine
	}

	traces := s.one().fleet.TracerouteAll(perVP, measure.TraceOptions{
		StartRate: s.Opts.rate(),
		Timeout:   s.Opts.timeout(),
	})

	var pairs []analysis.TraceRRPair
	for vp, ts := range traces {
		for _, tr := range ts {
			rrRes, ok := rrByVPDst[vp][tr.Dst]
			if !ok || !rrRes.HasRR {
				continue
			}
			pairs = append(pairs, analysis.TraceRRPair{
				Dst:       tr.Dst,
				TraceHops: tr.HopAddrs(),
				RRHops:    rrRes.RR,
			})
		}
	}
	return &StampAuditResult{
		Audit:         analysis.AuditStamping(pairs, s.Topo.ASNOf),
		PairsCompared: len(pairs),
		PerVPCap:      perVPCap,
	}
}

// Render prints the audit in the paper's terms.
func (sa *StampAuditResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== §3.5: do ASes refuse to stamp packets? ==")
	total := len(sa.Audit.PerAS)
	fmt.Fprintf(w, "measurement pairs compared: %d (per-VP cap %d)\n", sa.PairsCompared, sa.PerVPCap)
	fmt.Fprintf(w, "ASes observed in traceroutes: %d (paper: 7,185)\n", total)
	fmt.Fprintf(w, "  always also in RR:    %d (paper: 7,040)\n", len(sa.Audit.Always))
	fmt.Fprintf(w, "  sometimes missing:    %d (paper: 143)\n", len(sa.Audit.Sometimes))
	fmt.Fprintf(w, "  never in RR:          %d (paper: 2)\n", len(sa.Audit.Never))
	if len(sa.Audit.Never) > 0 {
		fmt.Fprintf(w, "  suspected AS-wide no-stamp policies: %v\n", sa.Audit.Never)
	}
}
