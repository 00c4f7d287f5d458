package study

import (
	"fmt"
	"io"
	"net/netip"
	"sort"

	"recordroute/internal/analysis"
	"recordroute/internal/probe"
)

// Responsiveness is the Table 1 experiment (§3.1–§3.2): three plain
// pings per destination from the origin, one ping-RR per destination
// from every vantage point.
type Responsiveness struct {
	// Dests is the probed hitlist, in dataset order.
	Dests []netip.Addr
	// PingResp marks ping-responsive destinations.
	PingResp map[netip.Addr]bool
	// Stats aggregates ping-RR outcomes per destination.
	Stats map[netip.Addr]*analysis.RRDestStat
	// PerVP retains the raw per-VP ping-RR results for downstream
	// experiments (reachability, stamping audit).
	PerVP map[string][]probe.Result
	// Table is the rendered classification.
	Table *analysis.Table1
	// NumVPs is the vantage-point count used; FunctionalVPs counts VPs
	// that received at least one RR response (the paper's 141 VPs were
	// all functional; simulated ones behind options-filtering upstreams
	// are not, mirroring the VPs the paper excluded).
	NumVPs, FunctionalVPs int
}

// RunResponsiveness executes the Table 1 measurement.
func (s *Study) RunResponsiveness() *Responsiveness {
	r := &Responsiveness{
		Dests:  s.Data.Addrs(),
		PerVP:  make(map[string][]probe.Result),
		NumVPs: len(s.Camp.VPs),
	}

	// The experiment is shard-invariant (each VP's probe stream is
	// independent), so it probes through the fleet.
	fleet := s.campaign()

	// Phase 1: three plain pings per destination from the origin host
	// (the paper's USC machine). Routed through the fleet's single-VP
	// batch primitive: the destination list fans across the replicas in
	// contiguous ranges (DESIGN.md §15).
	grouped := fleet.PingBatchVP(s.Origin.Name, r.Dests, 3, s.Opts.probeOpts())
	r.PingResp = analysis.PingResponsive(r.Dests, grouped)

	// Phase 2: one ping-RR per destination from every VP, each VP in
	// its own randomized order.
	perVP := fleet.PingRRAll(r.Dests, s.Opts.probeOpts(), s.Shuffler())
	r.PerVP = perVP
	r.Stats = analysis.AggregateRR(perVP)
	for _, rs := range perVP {
		for _, res := range rs {
			if res.Type == probe.EchoReply && res.HasRR {
				r.FunctionalVPs++
				break
			}
		}
	}

	rrResp := make(map[netip.Addr]bool, len(r.Stats))
	for a, st := range r.Stats {
		rrResp[a] = st.RRResponsive()
	}
	r.Table = analysis.BuildTable1(s.Data.DestInfos(), r.PingResp, rrResp)
	return r
}

// RRResponsive lists destinations classified RR-responsive, in dataset
// order.
func (r *Responsiveness) RRResponsive() []netip.Addr {
	var out []netip.Addr
	for _, d := range r.Dests {
		if st := r.Stats[d]; st != nil && st.RRResponsive() {
			out = append(out, d)
		}
	}
	return out
}

// RRRatioByIP returns the paper's headline by-IP ratio (0.75 published).
func (r *Responsiveness) RRRatioByIP() float64 {
	return r.Table.ByIP[analysis.TotalLabel].RRRatio()
}

// RRRatioByAS returns the by-AS ratio (0.82 published).
func (r *Responsiveness) RRRatioByAS() float64 {
	return r.Table.ByAS[analysis.TotalLabel].RRRatio()
}

// VPResponseDistribution is the §3.2 distribution: for each
// RR-responsive destination, the fraction of VPs whose ping-RR it
// answered. The paper reports ~80% of destinations answering >90 of
// 141 VPs (~64%).
type VPResponseDistribution struct {
	// FracAnswering[i] is the fraction of VPs destination i answered.
	Frac []float64
	// Above is the share of destinations answering more than the given
	// fraction of VPs.
	AboveTwoThirds float64
}

// Figure returns the distribution as a CDF over the fraction of
// functional VPs answered, sampled at deciles.
func (d *VPResponseDistribution) Figure() *analysis.Figure {
	fig := &analysis.Figure{
		Title:  "§3.2: fraction of VPs answered per RR-responsive destination (CDF)",
		XLabel: "frac-vps",
		X:      []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
	}
	fig.AddCDF("destinations", analysis.NewCDF(d.Frac))
	return fig
}

// VPResponseDist computes the §3.2 distribution from the stats.
func (r *Responsiveness) VPResponseDist() *VPResponseDistribution {
	d := &VPResponseDistribution{}
	above := 0
	total := 0
	for _, dst := range r.Dests {
		st := r.Stats[dst]
		if st == nil || !st.RRResponsive() {
			continue
		}
		total++
		f := frac(st.Responses, r.FunctionalVPs)
		d.Frac = append(d.Frac, f)
		if f > 2.0/3.0 {
			above++
		}
	}
	d.AboveTwoThirds = frac(above, total)
	return d
}

// Render prints the §3.2 headline.
func (d *VPResponseDistribution) Render(w io.Writer) {
	fmt.Fprintf(w, "RR-responsive destinations answering >2/3 of VPs: %.2f (paper: ~0.80)\n", d.AboveTwoThirds)
}

// Render prints Table 1 plus the headline ratios.
func (r *Responsiveness) Render(w io.Writer) {
	fmt.Fprintln(w, "== Table 1: response rates for pings with/without RR ==")
	r.Table.Render(w)
	fmt.Fprintf(w, "\nRR-responsive / ping-responsive by IP: %.2f (paper: 0.75)\n", r.RRRatioByIP())
	fmt.Fprintf(w, "RR-responsive / ping-responsive by AS: %.2f (paper: 0.82)\n", r.RRRatioByAS())
	dist := r.VPResponseDist()
	fmt.Fprintf(w, "destinations answering >2/3 of VPs:     %.2f (paper: ~0.80 answering >90/141)\n",
		dist.AboveTwoThirds)
	// Per-type ratios, the paper's "over 0.67 for every type" check.
	types := append([]string{analysis.TotalLabel}, r.Table.Types...)
	sort.Strings(types[1:])
	fmt.Fprintln(w, "\nper-type RR/ping ratios (paper: all > 0.67):")
	for _, typ := range types {
		fmt.Fprintf(w, "  %-16s %.2f\n", typ, r.Table.ByIP[typ].RRRatio())
	}
}
