package study

import (
	"fmt"
	"io"
	"sort"

	"recordroute/internal/probe"
)

// RateLimitResult is the §4.1 / Figure 4 experiment: per-VP ping-RR
// response counts when probing the same RR-responsive destinations at
// 10 pps and 100 pps.
type RateLimitResult struct {
	// PerVP maps VP name to response counts at each rate.
	PerVP map[string]*RateLimitVP
	// Dests is the probed population size.
	Dests int
	// DrasticDrop lists VPs losing more than 25% of responses at the
	// high rate — the paper's source-proximate-limiter signature
	// (8 of 79 published).
	DrasticDrop []string
}

// RateLimitVP is one VP's response counts.
type RateLimitVP struct {
	At10, At100 int
}

// DropFrac is the fractional response loss at 100 pps, in [0, 1].
// The edge cases are explicit so the >25% drastic-drop classification
// cannot misfire:
//   - At10 <= 0: there is no baseline to lose responses against. A VP
//     that additionally answered at 100 pps *gained* responses, so the
//     drop is 0 by decision, not by a division guard that happens to
//     return 0.
//   - At100 >= At10: a response gain at the high rate (loss noise at
//     10 pps resolving at 100 pps). The naive ratio would go negative
//     and silently offset real drops in any aggregate; clamped to 0.
func (v *RateLimitVP) DropFrac() float64 {
	switch {
	case v.At10 <= 0:
		return 0 // no baseline signal: a drop cannot be measured
	case v.At100 >= v.At10:
		return 0 // gain, not drop
	}
	return 1 - float64(v.At100)/float64(v.At10)
}

// RunRateLimit probes up to sampleCap RR-responsive destinations from
// every VP at 10 and then 100 pps, in per-VP random order (which also
// spreads load over destination-proximate limiters, §4.1).
func (s *Study) RunRateLimit(r *Responsiveness, sampleCap int) *RateLimitResult {
	targets := r.RRResponsive()
	if sampleCap > 0 && len(targets) > sampleCap {
		targets = targets[:sampleCap]
	}
	res := &RateLimitResult{
		PerVP: make(map[string]*RateLimitVP),
		Dests: len(targets),
	}
	count := func(rs []probe.Result) int {
		n := 0
		for _, pr := range rs {
			if pr.Type == probe.EchoReply && pr.HasRR {
				n++
			}
		}
		return n
	}
	at := func(rate float64) map[string][]probe.Result {
		return s.campaign().PingRROneEngine(targets, probe.Options{Rate: rate, Timeout: s.Opts.timeout()}, s.Shuffler())
	}
	at10, at100 := at(10), at(100)
	for vp, rs := range at10 {
		v := &RateLimitVP{At10: count(rs), At100: count(at100[vp])}
		res.PerVP[vp] = v
		if v.DropFrac() > 0.25 {
			res.DrasticDrop = append(res.DrasticDrop, vp)
		}
	}
	sort.Strings(res.DrasticDrop)
	return res
}

// Render prints the per-VP response counts, Figure 4's series.
func (rl *RateLimitResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== §4.1 / Figure 4: RR responses per VP at 10 vs 100 pps ==")
	fmt.Fprintf(w, "destinations probed per VP: %d\n", rl.Dests)
	names := make([]string, 0, len(rl.PerVP))
	for n := range rl.PerVP {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %10s %10s %8s\n", "vp", "10pps", "100pps", "drop")
	for _, n := range names {
		v := rl.PerVP[n]
		fmt.Fprintf(w, "%-12s %10d %10d %7.1f%%\n", n, v.At10, v.At100, 100*v.DropFrac())
	}
	fmt.Fprintf(w, "\nVPs with >25%% response drop at 100pps: %d %v (paper: 8 of 79)\n",
		len(rl.DrasticDrop), rl.DrasticDrop)
}
