package study

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/netip"

	"recordroute/internal/analysis"
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

	rrByVPDst := r.rrByDst()
	perVP := s.rrSample(r, rng, perVPCap)

	traces := s.campaign().TracerouteAll(perVP, s.Opts.ProbeOpts())

	var pairs []analysis.TraceRRPair
	for vp, ts := range traces {
		for _, tr := range ts {
			rrRes, ok := rrByVPDst[vp][tr.Dst]
			if !ok || !rrRes.HasRR {
				continue
			}
			pairs = append(pairs, analysis.TraceRRPair{
				Dst:            tr.Dst,
				TracerouteHops: tr.HopAddrs(),
				RRHops:         rrRes.RR,
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

// rrByDst indexes each VP's ping-RR results by destination.
func (r *Responsiveness) rrByDst() map[string]map[netip.Addr]probe.Result {
	out := make(map[string]map[netip.Addr]probe.Result)
	for vp, rs := range r.PerVP {
		m := make(map[netip.Addr]probe.Result)
		for _, res := range rs {
			m[res.Dst] = res
		}
		out[vp] = m
	}
	return out
}

// rrSample gives each M-Lab VP a random sample, at most perVPCap long,
// of the destinations that stamped RR in their replies to it.
func (s *Study) rrSample(r *Responsiveness, rng *rand.Rand, perVPCap int) map[string][]netip.Addr {
	perVP := make(map[string][]netip.Addr)
	for _, name := range s.vpNamesOfKind(topology.MLab) {
		var mine []netip.Addr
		for _, d := range r.Dests {
			if st := r.Stats[d]; st != nil && st.SlotsByVP[name] > 0 {
				mine = append(mine, d)
			}
		}
		rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
		perVP[name] = mine[:min(len(mine), perVPCap)]
	}
	return perVP
}
