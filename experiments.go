package recordroute

import (
	"fmt"
	"io"
	"net/netip"

	"recordroute/internal/analysis"
	"recordroute/internal/probe"
	"recordroute/internal/study"
)

// Params tunes one experiment run: the destination cap, Doubletree
// rounds, epochs-live's epoch count and the chaos sweep's custom level
// and retry budget. The zero value is rrstudy's default for every
// experiment.
type Params = study.Params

// Experiments resolves an experiment selector to the registered names
// it runs, in paper order: "all" selects the paper's tables and
// figures, a registered name itself. The error for an unknown selector
// lists every registered name.
func Experiments(selector string) ([]string, error) {
	exps, err := study.Select(selector)
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	return names, err
}

// Run runs one registered experiment (see Experiments) at p, renders it
// to w (nil discards) and folds its summary into Report. Experiments
// after Table 1 read its measurement, taken once per Internet.
func (in *Internet) Run(name string, w io.Writer, p Params) error {
	e, err := study.Lookup(name)
	if err != nil {
		return err
	}
	res, err := e.Run(in.st, p)
	if err != nil {
		return fmt.Errorf("recordroute: %s: %w", name, err)
	}
	in.record(w, res)
	return nil
}

// Report returns the summaries of every experiment this Internet has
// run so far.
func (in *Internet) Report() Report { return in.rep }

// Report bundles the experiments' machine-readable summaries, the
// paper-vs-measured record a reproduction run leaves behind. A field is
// zero until its experiment runs.
type Report struct {
	Table1       Table1Summary
	VPResponse   VPResponseSummary
	Reachability ReachabilitySummary
	Epochs       EpochSummary
	StampAudit   StampAuditSummary
	Clouds       CloudSummary
	RateLimit    RateLimitSummary
	TTL          TTLSummary
	Atlas        AtlasSummary
	SourceRoute  SourceRouteSummary
	// ChaosMetrics holds the chaos sweep's per-arm metrics captures,
	// keyed "baseline", "<label>/single-shot", "<label>/retry": each arm
	// measures a world of its own, so Metrics cannot see them.
	ChaosMetrics map[string]*MetricsSnapshot `json:"-"`
}

// record renders res to w and folds its summary into the report.
func (in *Internet) record(w io.Writer, res study.Result) {
	if w != nil {
		res.Render(w)
	}
	rep := &in.rep
	switch r := res.(type) {
	case *study.Responsiveness:
		total := r.Table.ByIP["Total"]
		rep.Table1 = Table1Summary{
			Probed:         total.Probed,
			PingResponsive: total.PingResponsive,
			RRResponsive:   total.RRResponsive,
			RRRatioByIP:    r.RRRatioByIP(),
			RRRatioByAS:    r.RRRatioByAS(),
		}
		rep.VPResponse = VPResponseSummary{AboveTwoThirds: r.VPResponseDist().AboveTwoThirds}
	case *study.VPResponseDistribution:
		rep.VPResponse = VPResponseSummary{AboveTwoThirds: r.AboveTwoThirds}
	case *study.Reachability:
		rep.Reachability = reachabilitySummary(r)
	case *study.EpochComparison:
		rep.Epochs = EpochSummary{
			Reachable2016: r.ReachableFrac2016, Reachable2011: r.ReachableFrac2011,
			Common2016: r.CommonFrac2016, Common2011: r.CommonFrac2011,
		}
	case *study.StampAuditResult:
		rep.StampAudit = StampAuditSummary{
			ASesAudited: len(r.Audit.PerAS),
			Always:      len(r.Audit.Always),
			Sometimes:   len(r.Audit.Sometimes),
			Never:       len(r.Audit.Never),
			NeverASNs:   r.Audit.Never,
		}
	case *study.CloudResult:
		rep.Clouds = CloudSummary{Within8: r.Within8, MLabMedianHops: r.MLabMedian, CloudMedianHops: r.CloudMedian}
	case *study.RateLimitResult:
		s := RateLimitSummary{ResponsesAt10: map[string]int{}, ResponsesAt100: map[string]int{}, DrasticDrop: r.DrasticDrop}
		for vp, v := range r.PerVP {
			s.ResponsesAt10[vp] = v.At10
			s.ResponsesAt100[vp] = v.At100
		}
		rep.RateLimit = s
	case *study.TTLResult:
		rep.TTL = TTLSummary{ReachableRate: r.ReachableRate, UnreachableRate: r.UnreachableRate}
	case *study.AtlasResult:
		rep.Atlas = AtlasSummary{
			Interfaces:      r.Stats.Interfaces,
			Both:            r.Stats.Both,
			TracerouteOnly:  r.Stats.TracerouteOnly,
			RROnly:          r.Stats.RROnly,
			RRReverse:       r.Stats.RRReverse,
			Links:           r.Stats.Links,
			AnonymousRROnly: r.AnonymousRROnly,
		}
	case *study.SourceRouteResult:
		rep.SourceRoute = SourceRouteSummary{Probed: r.Probed, RRRate: r.RRRate(), LSRRRate: r.LSRRRate()}
	case *study.Chaos:
		rep.ChaosMetrics = r.Snapshots
	}
}

// Table1Summary is the machine-readable core of the paper's Table 1.
type Table1Summary struct {
	Probed, PingResponsive, RRResponsive int
	// RRRatioByIP is RR-responsive/ping-responsive over addresses
	// (0.75 published); RRRatioByAS the same over ASes (0.82).
	RRRatioByIP, RRRatioByAS float64
}

// VPResponseSummary is the §3.2 distribution headline.
type VPResponseSummary struct {
	// AboveTwoThirds is the share of RR-responsive destinations
	// answering more than 2/3 of the VPs (~0.80 published for >90/141).
	AboveTwoThirds float64
}

// ReachabilitySummary is the machine-readable core of §3.3 / Figure 1.
type ReachabilitySummary struct {
	// ReachableFrac is the fraction of RR-responsive destinations
	// within nine hops of some VP (0.66 published); Within8Frac within
	// eight (≈0.60 published).
	ReachableFrac, Within8Frac float64
	// AliasReclassified and RRUDPReclassified count the §3.3
	// false-negative recoveries.
	AliasReclassified, RRUDPReclassified int
	// GreedyCoverage[k] is the fraction of RR-reachable destinations
	// covered by the best k+1 M-Lab sites (73%…95% published for
	// 1…10 sites).
	GreedyCoverage []float64
}

func reachabilitySummary(re *study.Reachability) ReachabilitySummary {
	s := ReachabilitySummary{
		ReachableFrac:     re.ReachableFrac,
		Within8Frac:       re.Within8Frac,
		AliasReclassified: re.AliasReclassified,
		RRUDPReclassified: re.RRUDPReclassified,
	}
	reachable := 0
	for _, d := range re.RRResponsive {
		if re.Stats[d].RRReachable() {
			reachable++
		}
	}
	for _, step := range re.Greedy {
		f := 0.0
		if reachable > 0 {
			f = float64(step.TotalCovered) / float64(reachable)
		}
		s.GreedyCoverage = append(s.GreedyCoverage, f)
	}
	return s
}

// EpochSummary is the machine-readable core of §3.4 / Figure 2.
type EpochSummary struct {
	// Reachable2016 and Reachable2011 are the all-VP RR-reachable
	// fractions (0.66 vs 0.12 published).
	Reachable2016, Reachable2011 float64
	// Common2016 and Common2011 restrict to VPs present in both years.
	Common2016, Common2011 float64
}

// StampAuditSummary is the machine-readable core of §3.5.
type StampAuditSummary struct {
	// ASesAudited is the number of ASes seen in traceroutes; Always,
	// Sometimes, and Never partition them by whether the corresponding
	// ping-RR also recorded them (7040/143/2 of 7185 published).
	ASesAudited, Always, Sometimes, Never int
	// NeverASNs lists the suspected AS-wide no-stamp networks.
	NeverASNs []int
}

// CloudSummary is the machine-readable core of §3.6 / Figure 3.
type CloudSummary struct {
	// Within8 maps each cloud to the fraction of RR-responsive (but not
	// M-Lab-reachable) destinations within eight hops of its border
	// (EC2 40%, Softlayer 45% published).
	Within8 map[string]float64
	// MLabMedianHops and CloudMedianHops compare distances to the
	// RR-reachable set.
	MLabMedianHops  float64
	CloudMedianHops map[string]float64
}

// Figure3Clouds runs the §3.6 cloud-distance analysis (sampleCap
// destinations per set; 0 for the default) and renders Figure 3 to w.
func (in *Internet) Figure3Clouds(w io.Writer, sampleCap int) CloudSummary {
	in.record(w, in.st.RunCloudDistance(in.st.Table1(), sampleCap))
	return in.rep.Clouds
}

// RateLimitSummary is the machine-readable core of §4.1 / Figure 4.
type RateLimitSummary struct {
	// ResponsesAt10 and ResponsesAt100 are per-VP RR response counts at
	// the two probing rates.
	ResponsesAt10, ResponsesAt100 map[string]int
	// DrasticDrop lists VPs losing >25% at 100pps (8 of 79 published).
	DrasticDrop []string
}

// TTLSummary is the machine-readable core of §4.2 / Figure 5.
type TTLSummary struct {
	// ReachableRate and UnreachableRate map initial TTL to destination
	// response rate for the two populations (sweet spot 10–12
	// published: ~70% vs ~25% at TTL 10).
	ReachableRate, UnreachableRate map[uint8]float64
}

// Figure5TTL runs the §4.2 TTL-tradeoff experiment (perVPCap
// destinations per class per VP; 0 for the default) and renders
// Figure 5 to w.
func (in *Internet) Figure5TTL(w io.Writer, perVPCap int) TTLSummary {
	in.record(w, in.st.RunTTLStudy(in.st.Table1(), perVPCap))
	return in.rep.TTL
}

// AtlasSummary is the §2 complementarity experiment's summary.
type AtlasSummary struct {
	// Interfaces is the alias-collapsed interface count; Both,
	// TracerouteOnly, and RROnly partition it by provenance; RRReverse
	// counts reverse-path interfaces invisible to forward probing.
	Interfaces, Both, TracerouteOnly, RROnly, RRReverse, Links int
	// AnonymousRROnly counts ground-truth TTL-invisible routers that
	// only RR observed.
	AnonymousRROnly int
}

// TopologyAtlas merges all ping-RR results with traceroutes (perVPCap
// destinations per M-Lab VP; 0 for the default) into an interface-level
// atlas and renders the §2 complementarity summary to w.
func (in *Internet) TopologyAtlas(w io.Writer, perVPCap int) AtlasSummary {
	in.record(w, in.st.RunAtlas(in.st.Table1(), perVPCap))
	return in.rep.Atlas
}

// SourceRouteSummary is the historical-contrast summary.
type SourceRouteSummary struct {
	// Probed counts (VP, destination) pairs tried with both primitives;
	// RRRate and LSRRRate are the per-primitive response rates — the
	// 2005-report-vs-this-paper contrast.
	Probed           int
	RRRate, LSRRRate float64
}

// Classification names a destination's §3.1 class ("unresponsive",
// "ping-responsive", "rr-responsive", "rr-reachable",
// "reverse-measurable") with the best RR slot it occupied.
type Classification struct {
	Class    string
	BestSlot int
	// FalseNegativeSignal marks the §3.3 signature: responses with free
	// RR slots but no destination stamp, worth re-testing via alias
	// resolution or ping-RRudp.
	FalseNegativeSignal bool
}

// ClassifyDestination applies the paper's full per-destination
// methodology to dst: a plain ping and a ping-RR from every vantage
// point, plus a ping-RRudp when the first pass shows the false-negative
// signature, all folded through the §3.1 decision rules.
func (in *Internet) ClassifyDestination(dst netip.Addr) Classification {
	probeAll := func(kind probe.Kind) map[string][]probe.Result {
		perVP := make(map[string][]probe.Result)
		for _, vp := range in.st.Camp.VPs {
			vp.Prober.StartOne(probe.Spec{Dst: dst, Kind: kind}, in.opts.timeout, func(r probe.Result) {
				perVP[vp.Name] = append(perVP[vp.Name], r)
			})
		}
		in.st.Camp.Eng.Run()
		return perVP
	}
	pings := probeAll(probe.Ping)
	st := analysis.AggregateRR(probeAll(probe.PingRR))[dst]
	if st == nil { // no ping-RR was answered
		for _, rs := range pings {
			if rs[0].Type == probe.EchoReply {
				return Classification{Class: "ping-responsive"}
			}
		}
		return Classification{Class: "unresponsive"}
	}
	if st.SawFreeSlots && !st.RRReachable() {
		analysis.ApplyRRUDP(map[netip.Addr]*analysis.RRDestStat{dst: st}, probeAll(probe.PingRRUDP))
	}
	c := Classification{Class: "ping-responsive", BestSlot: st.MinDestSlot, FalseNegativeSignal: st.SawFreeSlots}
	switch {
	case st.WithinHops(8):
		c.Class = "reverse-measurable"
	case st.RRReachable():
		c.Class = "rr-reachable"
	case st.RRResponsive():
		c.Class = "rr-responsive"
	}
	return c
}
