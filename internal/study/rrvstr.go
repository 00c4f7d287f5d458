package study

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/netip"

	"recordroute/internal/analysis"
	"recordroute/internal/trace"
)

// RRvsTRPair is one (VP, destination) comparison of the two path
// views: the ping-RR stamps and an exhaustive traceroute.
type RRvsTRPair struct {
	VP  string
	Dst netip.Addr
	// RouterOverlap is the fraction of distinct RR stamps the
	// traceroute also saw (router-level containment).
	RouterOverlap float64
	// ASAgree is the AS-path agreement (longest-common-prefix
	// fraction) between the RR stamps and the traceroute hops over
	// the RR window; ASExact marks full agreement.
	ASAgree float64
	ASExact bool
}

// RRvsTRResult is the paper's RR-vs-traceroute comparison: how well
// the nine RR slots reproduce what TTL-limited probing sees, at
// router and AS granularity.
type RRvsTRResult struct {
	Pairs    int
	PerVPCap int

	RouterOverlap analysis.Description
	ASExactFrac   float64
	ASAgreeMean   float64

	Fig *analysis.Figure
}

// RunRRvsTR pairs each M-Lab VP's cached ping-RR results with fresh
// exhaustive traceroutes (stop sets disabled — path comparison wants
// the full hop sequence) of up to perVPCap RR-responsive destinations
// per VP, then scores router-level containment and AS-level path
// agreement. Traceroutes go through the study's fleet, so the render
// is byte-identical across shard counts.
func (s *Study) RunRRvsTR(r *Responsiveness, perVPCap int) *RRvsTRResult {
	if perVPCap <= 0 {
		perVPCap = 200
	}
	rng := rand.New(rand.NewPCG(s.Opts.ShuffleSeed^0x7274, 0x5254))

	rrByVPDst := r.rrByDst()
	// Each M-Lab VP traces a random capped sample of the destinations
	// that stamped RR for it.
	perVP := s.rrSample(r, rng, perVPCap)

	sess := trace.NewSession(s.stopSetPrefixOf)
	rounds := s.campaign().DoubletreeAll(perVP, sess,
		trace.Options{Timeout: s.Opts.timeout(), Exhaustive: true})

	res := &RRvsTRResult{PerVPCap: perVPCap}
	var pairs []RRvsTRPair
	for _, vp := range sortedVPNames(rounds) {
		for _, t := range rounds[vp].Traces {
			rrRes, ok := rrByVPDst[vp][t.Dst]
			if !ok || !rrRes.HasRR || len(rrRes.RR) == 0 {
				continue
			}
			trHops := t.HopAddrs() // exhaustive → ascending TTL order
			window := trHops
			if len(window) > len(rrRes.RR) {
				window = window[:len(rrRes.RR)]
			}
			asRR := analysis.ASPath(rrRes.RR, s.Topo.ASNOf)
			asTR := analysis.ASPath(window, s.Topo.ASNOf)
			agree := analysis.PathAgreement(asRR, asTR)
			pairs = append(pairs, RRvsTRPair{
				VP: vp, Dst: t.Dst,
				RouterOverlap: analysis.OverlapFrac(rrRes.RR, trHops),
				ASAgree:       agree,
				ASExact:       agree == 1,
			})
		}
	}

	res.Pairs = len(pairs)
	overlaps := make([]float64, len(pairs))
	exact := 0
	agreeSum := 0.0
	for i, p := range pairs {
		overlaps[i] = p.RouterOverlap
		agreeSum += p.ASAgree
		if p.ASExact {
			exact++
		}
	}
	res.RouterOverlap = analysis.Describe(overlaps)
	if len(pairs) > 0 {
		res.ASExactFrac = float64(exact) / float64(len(pairs))
		res.ASAgreeMean = agreeSum / float64(len(pairs))
	}

	fig := &analysis.Figure{
		Title:  "CDF of per-pair router-level RR∩traceroute overlap",
		XLabel: "overlap",
		X:      []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
	}
	fig.AddCDF("pairs", analysis.NewCDF(overlaps))
	res.Fig = fig
	return res
}

// Render prints the comparison.
func (r *RRvsTRResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== RR vs traceroute: router- and AS-level path agreement ==")
	fmt.Fprintf(w, "pairs compared: %d (per-VP cap %d, M-Lab VPs)\n", r.Pairs, r.PerVPCap)
	fmt.Fprintf(w, "router level — fraction of RR stamps traceroute also saw:\n")
	fmt.Fprintf(w, "  median %.2f   mean %.2f   p90 %.2f\n",
		r.RouterOverlap.Median, r.RouterOverlap.Mean, r.RouterOverlap.P90)
	fmt.Fprintf(w, "AS level — agreement over the RR window:\n")
	fmt.Fprintf(w, "  exact AS-path match: %.1f%%\n", 100*r.ASExactFrac)
	fmt.Fprintf(w, "  mean AS-path agreement (LCP fraction): %.2f\n", r.ASAgreeMean)
	r.Fig.Render(w)
}
