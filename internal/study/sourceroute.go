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

	// Choose per-VP targets with a known first hop from that VP.
	type target struct {
		dst, via netip.Addr
	}
	perVP := make(map[string][]target)
	for vp, results := range r.PerVP {
		var mine []target
		for _, pr := range results {
			if pr.Type != probe.EchoReply || !pr.HasRR || len(pr.RR) == 0 {
				continue
			}
			mine = append(mine, target{dst: pr.Dst, via: pr.RR[0]})
			if len(mine) == perVPCap {
				break
			}
		}
		perVP[vp] = mine
	}

	roster := s.one().vps
	for _, vp := range roster.VPs {
		targets := perVP[vp.Name]
		if len(targets) == 0 {
			continue
		}
		rrSpecs := make([]probe.Spec, len(targets))
		lsrrSpecs := make([]probe.Spec, len(targets))
		for i, t := range targets {
			rrSpecs[i] = probe.Spec{Dst: t.dst, Kind: probe.PingRR}
			lsrrSpecs[i] = probe.Spec{Dst: t.dst, Kind: probe.PingLSRR, Via: []netip.Addr{t.via}}
		}
		res.Probed += len(targets)
		count := func(rs []probe.Result, into *int) {
			for _, pr := range rs {
				if pr.Type == probe.EchoReply {
					*into++
				}
			}
		}
		vp.Prober.StartBatch(rrSpecs, s.Opts.probeOpts(), func(rs []probe.Result) { count(rs, &res.RRResponses) })
		vp.Prober.StartBatch(lsrrSpecs, s.Opts.probeOpts(), func(rs []probe.Result) { count(rs, &res.LSRRResponses) })
	}
	roster.Eng.Run()
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
