package study

import (
	"fmt"
	"io"
	"net/netip"
	"sort"

	"recordroute/internal/alias"
	"recordroute/internal/analysis"
	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

// Reachability is the §3.3 / Figure 1 experiment: how many
// RR-responsive destinations sit within the nine-hop limit, by VP
// subset, plus the alias and ping-RRudp reclassifications.
type Reachability struct {
	// RRResponsive is the analyzed population.
	RRResponsive []netip.Addr
	// Stats are the (possibly reclassified) per-destination stats.
	Stats map[netip.Addr]*analysis.RRDestStat

	// Figure1 holds the closest-VP hop CDF lines.
	Figure1 *analysis.Figure
	// Greedy is the M-Lab site-selection sequence.
	Greedy []analysis.GreedyStep

	// ReachableFrac is the §3.3 headline (0.66 published); Within8Frac
	// the reverse-path criterion (≈0.60 published).
	ReachableFrac, Within8Frac float64

	// AliasReclassified and RRUDPReclassified count the §3.3 recoveries
	// (5,637 and 4,358 published, of ~300k).
	AliasReclassified, RRUDPReclassified int
	// AliasSets holds the resolved alias sets.
	AliasSets *alias.Sets
}

// RunReachability executes the §3.3 analysis on top of responsiveness
// results, issuing the extra alias-resolution pings and ping-RRudp
// probes it needs.
func (s *Study) RunReachability(r *Responsiveness) *Reachability {
	re := &Reachability{
		RRResponsive: r.RRResponsive(),
		Stats:        r.Stats,
	}

	// Reclassification 1: alias resolution over each unreachable
	// destination and the addresses recorded in its own responses.
	re.AliasSets, re.AliasReclassified = s.resolveAliases(r)

	// Reclassification 2: ping-RRudp to destinations still unreachable.
	re.RRUDPReclassified = s.runRRUDP(r)

	// Headline fractions.
	reachable, within8 := 0, 0
	for _, d := range re.RRResponsive {
		st := re.Stats[d]
		if st.RRReachable() {
			reachable++
		}
		if st.WithinHops(8) {
			within8++
		}
	}
	re.ReachableFrac = frac(reachable, len(re.RRResponsive))
	re.Within8Frac = frac(within8, len(re.RRResponsive))

	re.Figure1 = s.buildFigure1(r)
	re.Greedy = analysis.GreedyCover(
		s.coverage(r, s.vpNamesOfKind(topology.MLab), 9), 10)
	return re
}

// aliasRounds is how many pings resolveAliases sends each candidate: the
// most any ping phase sends one address (Table 1's origin phase sends 3).
const aliasRounds = 5

// resolveAliases runs MIDAR-style resolution for destinations that are
// RR-responsive but unreachable, pairing each with the addresses its own
// responses recorded, then applies the upgrades.
func (s *Study) resolveAliases(r *Responsiveness) (*alias.Sets, int) {
	// Index the wanted destinations' recorded routes once — the naive
	// per-destination scan over all VP results is quadratic — and only
	// theirs: most RR replies come from reachable destinations.
	routes := make(map[netip.Addr][][]netip.Addr)
	for _, d := range r.Dests {
		if st := r.Stats[d]; st != nil && st.RRResponsive() && !st.RRReachable() {
			routes[d] = nil
		}
	}
	for _, vpRes := range r.PerVP {
		for i := range vpRes {
			res := &vpRes[i]
			if res.Type != probe.EchoReply || !res.HasRR {
				continue
			}
			if rrs, wanted := routes[res.Dst]; wanted {
				routes[res.Dst] = append(rrs, res.RR)
			}
		}
	}
	candSet := make(map[netip.Addr]bool)
	pairSeen := make(map[[2]netip.Addr]bool)
	var pairs [][2]netip.Addr
	for _, d := range r.Dests {
		for _, rr := range routes[d] {
			for _, hop := range rr {
				// Only same-origin-AS hops can be host aliases.
				if hop == d || s.Data.OriginASN(hop) != s.Data.OriginASN(d) {
					continue
				}
				pair := [2]netip.Addr{d, hop}
				if !pairSeen[pair] {
					pairSeen[pair] = true
					pairs = append(pairs, pair)
					candSet[d], candSet[hop] = true, true
				}
			}
		}
	}
	if len(pairs) == 0 {
		return alias.NewSets(), 0
	}
	cands := make([]netip.Addr, 0, len(candSet))
	for a := range candSet {
		cands = append(cands, a)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Less(cands[j]) })

	// Interleaved rounds over the candidates, fanned across the fleet's
	// replicas: an IP-ID is a function of the device and the time it
	// answers, so it does not matter which replica samples it.
	var rs []probe.Result
	for _, g := range s.campaign().PingBatchVP(s.Origin.Name, cands, aliasRounds, s.Opts.probeOpts()) {
		rs = append(rs, g...)
	}
	sets := alias.Resolve(alias.SeriesFrom(rs), pairs, alias.Config{})
	n := analysis.ApplyAliases(r.Stats, r.PerVP, sets.Canonical)
	return sets, n
}

// runRRUDP sends ping-RRudp from every VP to the destinations still
// classified unreachable and applies the §3.3 upgrade.
func (s *Study) runRRUDP(r *Responsiveness) int {
	var targets []netip.Addr
	for _, d := range r.Dests {
		st := r.Stats[d]
		if st != nil && st.RRResponsive() && !st.RRReachable() {
			targets = append(targets, d)
		}
	}
	if len(targets) == 0 {
		return 0
	}
	perVP := make(map[string][]netip.Addr, len(s.Camp.VPs))
	for _, vp := range s.Camp.VPs {
		perVP[vp.Name] = targets
	}
	results := s.campaign().PingRRUDPAll(perVP, s.Opts.probeOpts())
	return analysis.ApplyRRUDP(r.Stats, results)
}

// coverage derives reachable-destination sets per VP, restricted to the
// named VPs and maxSlot.
func (s *Study) coverage(r *Responsiveness, names []string, maxSlot int) map[string]map[netip.Addr]bool {
	allowed := make(map[string]bool, len(names))
	for _, n := range names {
		allowed[n] = true
	}
	full := analysis.CoverageFromStats(r.Stats, maxSlot)
	out := make(map[string]map[netip.Addr]bool)
	for vp, set := range full {
		if allowed[vp] {
			out[vp] = set
		}
	}
	return out
}

// buildFigure1 assembles the closest-VP hop CDF for the paper's VP
// subsets: all M-Lab, the ten greedily best M-Lab sites, the single
// best M-Lab site, and all PlanetLab.
func (s *Study) buildFigure1(r *Responsiveness) *analysis.Figure {
	fig := &analysis.Figure{
		Title:  "Figure 1: RR hops from closest vantage point to RR-responsive destinations (CDF)",
		XLabel: "rr-hops",
		X:      analysis.IntRange(1, 9),
	}
	mlab := s.vpNamesOfKind(topology.MLab)
	plab := s.vpNamesOfKind(topology.PlanetLab)

	greedy := analysis.GreedyCover(s.coverage(r, mlab, 9), 10)
	var top10, top1 []string
	for i, step := range greedy {
		if i < 10 {
			top10 = append(top10, step.VP)
		}
		if i < 1 {
			top1 = append(top1, step.VP)
		}
	}

	population := len(r.RRResponsive())
	for _, line := range []struct {
		name string
		vps  []string
	}{
		{"all-mlab", mlab},
		{"10-mlab", top10},
		{"1-mlab", top1},
		{"all-planetlab", plab},
	} {
		fig.AddLine(line.name, s.closestVPCDF(r, line.vps, population))
	}
	return fig
}

// closestVPCDF returns, for x = 1..9, the fraction of RR-responsive
// destinations whose closest VP among the subset is within x hops.
func (s *Study) closestVPCDF(r *Responsiveness, vps []string, population int) []float64 {
	allowed := make(map[string]bool, len(vps))
	for _, v := range vps {
		allowed[v] = true
	}
	counts := make([]int, 10) // index = min slot, 1..9
	for _, d := range r.RRResponsive() {
		st := r.Stats[d]
		best := 0
		for vp, slot := range st.SlotsByVP {
			if !allowed[vp] || slot == 0 {
				continue
			}
			if best == 0 || slot < best {
				best = slot
			}
		}
		if best >= 1 && best <= 9 {
			counts[best]++
		}
	}
	out := make([]float64, 9)
	cum := 0
	for x := 1; x <= 9; x++ {
		cum += counts[x]
		out[x-1] = frac(cum, population)
	}
	return out
}

// Render prints the figure, the greedy steps, and the headline numbers.
func (re *Reachability) Render(w io.Writer) {
	fmt.Fprintln(w, "== §3.3 / Figure 1: are destinations within the 9 hop limit? ==")
	fmt.Fprintf(w, "RR-reachable fraction of RR-responsive: %.2f (paper: 0.66)\n", re.ReachableFrac)
	fmt.Fprintf(w, "within 8 hops (reverse-path criterion): %.2f (paper: ~0.60)\n", re.Within8Frac)
	fmt.Fprintf(w, "reclassified via alias resolution:      %d (paper: 5,637 of ~300k)\n", re.AliasReclassified)
	fmt.Fprintf(w, "reclassified via ping-RRudp:            %d (paper: 4,358 of ~300k)\n\n", re.RRUDPReclassified)
	re.Figure1.Render(w)
	fmt.Fprintln(w, "\ngreedy M-Lab site selection (paper: 73/82/86/91/95% at 1/2/3/5/10 sites):")
	reachTotal := 0
	for _, d := range re.RRResponsive {
		if re.Stats[d].RRReachable() {
			reachTotal++
		}
	}
	for i, step := range re.Greedy {
		fmt.Fprintf(w, "  %2d sites: %-12s +%-5d covered %5d/%d (%.0f%% of RR-reachable)\n",
			i+1, step.VP, step.NewlyCovered, step.TotalCovered, reachTotal,
			pct(step.TotalCovered, reachTotal))
	}
}
