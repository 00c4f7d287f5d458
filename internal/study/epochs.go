package study

import (
	"context"
	"fmt"
	"io"

	"recordroute/internal/analysis"
	"recordroute/internal/topology"
)

// EpochComparison is the §3.4 / Figure 2 experiment: reachability from
// the 2011-era Internet and vantage points versus 2016, including the
// common-VP subset that isolates topology change from VP growth.
type EpochComparison struct {
	Figure2 *analysis.Figure
	// ReachableFrac2016/2011 are the all-VP headline fractions
	// (0.66 vs 0.12 published).
	ReachableFrac2016, ReachableFrac2011 float64
	// CommonFrac are the same restricted to VPs present in both years.
	CommonFrac2016, CommonFrac2011 float64
	// Dests2016 and Dests2011 count each epoch's probed destinations.
	Dests2016, Dests2011 int
}

// RunEpochComparison builds and measures both epochs. cfg2016 seeds the
// roster; the 2011 topology shares it but re-derives the peering and VP
// populations of that era. Both epochs probe under ctx
// (Study.SetContext), and abort on the caller's goroutine.
func RunEpochComparison(ctx context.Context, cfg2016 topology.Config, opts Options) (*EpochComparison, error) {
	cfg2011 := topology.DefaultConfig(topology.Epoch2011)
	cfg2011.Seed = cfg2016.Seed
	// Carry any scaling of the roster over to the 2011 config.
	cfg2011.NumTier1 = cfg2016.NumTier1
	cfg2011.NumTransit = cfg2016.NumTransit
	cfg2011.NumAccess = cfg2016.NumAccess
	cfg2011.NumEnterprise = cfg2016.NumEnterprise
	cfg2011.NumContent = cfg2016.NumContent
	cfg2011.NumUnknown = cfg2016.NumUnknown
	scale := float64(cfg2016.NumMLab) / float64(topology.DefaultConfig(topology.Epoch2016).NumMLab)
	cfg2011.NumMLab = max(1, int(float64(cfg2011.NumMLab)*scale+0.5))
	cfg2011.NumPlanetLab = max(1, int(float64(cfg2011.NumPlanetLab)*scale+0.5))

	s16, err := New(cfg2016, opts)
	if err != nil {
		return nil, err
	}
	s11, err := New(cfg2011, opts)
	if err != nil {
		return nil, err
	}
	s16.SetContext(ctx)
	s11.SetContext(ctx)

	// The two epochs are independent simulations with independent
	// engines; measure them in parallel. A panic on either side waits
	// for the 2011 goroutine, whose own panic is raised again here.
	var r16, r11 *Responsiveness
	var panic11 any
	done := make(chan struct{})
	go func() {
		defer func() { panic11 = recover(); close(done) }()
		r11 = s11.RunResponsiveness()
	}()
	defer func() { <-done }()
	r16 = s16.RunResponsiveness()
	<-done
	if panic11 != nil {
		panic(panic11)
	}

	// Common VPs: names present in both years (the generator names VPs
	// stably per platform).
	names16 := make(map[string]bool)
	for _, vp := range s16.Topo.VPs {
		names16[vp.Name] = true
	}
	var common []string
	for _, vp := range s11.Topo.VPs {
		if names16[vp.Name] {
			common = append(common, vp.Name)
		}
	}

	ec := &EpochComparison{
		Dests2016: len(r16.Dests),
		Dests2011: len(r11.Dests),
		Figure2: &analysis.Figure{
			Title:  "Figure 2: RR hops from closest VP, 2011 vs 2016 (CDF over RR-responsive destinations)",
			XLabel: "rr-hops",
			X:      analysis.IntRange(1, 9),
		},
	}
	allNames := func(s *Study) []string {
		var out []string
		for _, vp := range s.Topo.VPs {
			out = append(out, vp.Name)
		}
		return out
	}
	pop16 := len(r16.RRResponsive())
	pop11 := len(r11.RRResponsive())
	ec.Figure2.AddLine("2016-all-vps", s16.closestVPCDF(r16, allNames(s16), pop16))
	ec.Figure2.AddLine("2016-common-vps", s16.closestVPCDF(r16, common, pop16))
	ec.Figure2.AddLine("2011-all-vps", s11.closestVPCDF(r11, allNames(s11), pop11))
	ec.Figure2.AddLine("2011-common-vps", s11.closestVPCDF(r11, common, pop11))

	last := len(ec.Figure2.X) - 1
	ec.ReachableFrac2016 = ec.Figure2.Lines[0].Y[last]
	ec.CommonFrac2016 = ec.Figure2.Lines[1].Y[last]
	ec.ReachableFrac2011 = ec.Figure2.Lines[2].Y[last]
	ec.CommonFrac2011 = ec.Figure2.Lines[3].Y[last]
	return ec, nil
}

// Render prints the figure and headline fractions.
func (ec *EpochComparison) Render(w io.Writer) {
	fmt.Fprintln(w, "== §3.4 / Figure 2: has reachability changed over time? ==")
	ec.Figure2.Render(w)
	fmt.Fprintf(w, "\nRR-reachable fraction, all VPs: 2016 %.2f vs 2011 %.2f (paper: 0.66 vs 0.12)\n",
		ec.ReachableFrac2016, ec.ReachableFrac2011)
	fmt.Fprintf(w, "RR-reachable fraction, common VPs: 2016 %.2f vs 2011 %.2f (same direction expected)\n",
		ec.CommonFrac2016, ec.CommonFrac2011)
}
