package study

import (
	"fmt"
	"io"
	"net/netip"
	"sort"

	"recordroute/internal/analysis"
	"recordroute/internal/measure"
	"recordroute/internal/topology"
)

// CloudResult is the §3.6 / Figure 3 experiment: hop-count distance
// from cloud providers to RR-reachable and RR-responsive destinations,
// calibrated against M-Lab's distance to its RR-reachable set.
type CloudResult struct {
	Figure3 *analysis.Figure
	// Within8 maps each cloud to the fraction of RR-responsive (but not
	// RR-reachable-from-M-Lab) destinations within eight traceroute hops
	// (paper: EC2 40%, Softlayer 45%; GCE better still).
	Within8 map[string]float64
	// MLabMedian and CloudMedian summarize the reachable-set distances.
	MLabMedian  float64
	CloudMedian map[string]float64
	// SampledReachable/Responsive record the population sizes used.
	SampledReachable, SampledResponsive int
}

// RunCloudDistance traceroutes from each cloud's border to samples of
// the RR-reachable and RR-responsive-only destination sets, and from
// M-Lab VPs to the reachable sample.
func (s *Study) RunCloudDistance(r *Responsiveness, sampleCap int) *CloudResult {
	if sampleCap <= 0 {
		sampleCap = 300
	}
	var reachable, responsiveOnly []netip.Addr
	for _, d := range r.Dests {
		st := r.Stats[d]
		if st == nil || !st.RRResponsive() {
			continue
		}
		if st.RRReachable() {
			reachable = append(reachable, d)
		} else {
			responsiveOnly = append(responsiveOnly, d)
		}
	}
	if len(reachable) > sampleCap {
		reachable = reachable[:sampleCap]
	}
	if len(responsiveOnly) > sampleCap {
		responsiveOnly = responsiveOnly[:sampleCap]
	}

	topts := measure.TraceOptions{StartRate: s.Opts.rate(), Timeout: s.Opts.timeout(), MaxTTL: 30}

	// Cloud traceroutes to both sets.
	perCloud := make(map[string][]netip.Addr)
	for _, vp := range s.CloudCamp.VPs {
		perCloud[vp.Name] = append(append([]netip.Addr(nil), reachable...), responsiveOnly...)
	}
	cloudTraces := s.campaign().CloudTracerouteAll(perCloud, topts)

	// M-Lab traceroutes to the reachable set: each destination traced
	// from its closest M-Lab VP (matching the paper's per-VP usage).
	perMLab := make(map[string][]netip.Addr)
	mlabSet := make(map[string]bool)
	for _, n := range s.vpNamesOfKind(topology.MLab) {
		mlabSet[n] = true
	}
	for _, d := range reachable {
		st := r.Stats[d]
		best, bestSlot := "", 0
		for vp, slot := range st.SlotsByVP {
			if !mlabSet[vp] || slot == 0 {
				continue
			}
			if bestSlot == 0 || slot < bestSlot || (slot == bestSlot && vp < best) {
				best, bestSlot = vp, slot
			}
		}
		if best != "" {
			perMLab[best] = append(perMLab[best], d)
		}
	}
	mlabTraces := s.campaign().TracerouteAll(perMLab, topts)

	res := &CloudResult{
		Figure3: &analysis.Figure{
			Title:  "Figure 3: traceroute hop count from clouds and M-Lab (CDF of destinations)",
			XLabel: "trace-hops",
			X:      analysis.IntRange(1, 20),
		},
		Within8:           make(map[string]float64),
		CloudMedian:       make(map[string]float64),
		SampledReachable:  len(reachable),
		SampledResponsive: len(responsiveOnly),
	}

	reachSet := make(map[netip.Addr]bool, len(reachable))
	for _, d := range reachable {
		reachSet[d] = true
	}

	hopCounts := func(traces []measure.Trace, filter func(netip.Addr) bool) []int {
		var out []int
		for _, tr := range traces {
			if tr.Reached && filter(tr.Dst) {
				out = append(out, int(tr.DestTTL))
			}
		}
		return out
	}

	names := make([]string, 0, len(cloudTraces))
	for n := range cloudTraces {
		names = append(names, n)
	}
	sort.Strings(names)
	primary := ""
	for _, cloud := range names {
		if primary == "" {
			primary = cloud
		}
		reach := hopCounts(cloudTraces[cloud], func(d netip.Addr) bool { return reachSet[d] })
		resp := hopCounts(cloudTraces[cloud], func(d netip.Addr) bool { return !reachSet[d] })
		cReach := analysis.NewCDFInts(reach)
		cResp := analysis.NewCDFInts(resp)
		res.Within8[cloud] = cResp.At(8)
		res.CloudMedian[cloud] = cReach.Quantile(0.5)
		if cloud == primary {
			res.Figure3.AddCDF(cloud+"-rr-reachable", cReach)
			res.Figure3.AddCDF(cloud+"-rr-responsive", cResp)
		}
	}

	var mlabAll []int
	for _, ts := range mlabTraces {
		mlabAll = append(mlabAll, hopCounts(ts, func(netip.Addr) bool { return true })...)
	}
	mlabCDF := analysis.NewCDFInts(mlabAll)
	res.Figure3.AddCDF("mlab-rr-reachable", mlabCDF)
	res.MLabMedian = mlabCDF.Quantile(0.5)
	return res
}

// Render prints the figure and the per-cloud summary.
func (cr *CloudResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== §3.6 / Figure 3: could RR be useful to cloud providers? ==")
	fmt.Fprintf(w, "sampled %d RR-reachable and %d RR-responsive-only destinations\n\n",
		cr.SampledReachable, cr.SampledResponsive)
	cr.Figure3.Render(w)
	fmt.Fprintf(w, "\nM-Lab median hops to RR-reachable: %.0f\n", cr.MLabMedian)
	names := make([]string, 0, len(cr.Within8))
	for n := range cr.Within8 {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, cloud := range names {
		fmt.Fprintf(w, "%-10s median hops to reachable: %.0f; RR-responsive within 8 hops: %.0f%% (paper: EC2 40%%, Softlayer 45%%)\n",
			cloud, cr.CloudMedian[cloud], 100*cr.Within8[cloud])
	}
}
