package study

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/netip"

	"recordroute/internal/analysis"
	"recordroute/internal/probe"
)

// TTLResult is the §4.2 / Figure 5 experiment: response rate of
// RR-reachable and non-RR-reachable destinations to ping-RRs with
// limited initial TTLs.
type TTLResult struct {
	Figure5 *analysis.Figure
	// RateAt returns the response rates measured at each probed TTL.
	ReachableRate, UnreachableRate map[uint8]float64
	// TTLs lists the probed TTL values in order.
	TTLs []uint8
	// Probes counts the probes sent.
	Probes int
}

// RunTTLStudy probes, from each VP, an equal number of RR-reachable and
// non-RR-reachable (but RR-responsive) destinations with TTLs drawn
// from {3..23, 64}, and reports per-TTL destination response rates
// (a response is an echo reply from the destination; expiry errors are
// the cheap outcome the technique aims for).
func (s *Study) RunTTLStudy(r *Responsiveness, perVPCap int) *TTLResult {
	if perVPCap <= 0 {
		perVPCap = 200
	}
	rng := rand.New(rand.NewPCG(s.Opts.ShuffleSeed^0x77aa, 0x1199))

	ttls := make([]uint8, 0, 22)
	for v := 3; v <= 23; v++ {
		ttls = append(ttls, uint8(v))
	}
	ttls = append(ttls, 64)

	// Per VP: equal-sized near and far sets, following the paper — each
	// VP probes destinations *it* previously received RR responses
	// from, split by whether they were RR-reachable from that VP.
	perVPdst := make(map[string][]netip.Addr)
	perVPttl := make(map[string][]uint8)
	nearForVP := make(map[string]map[netip.Addr]bool)
	probes := 0
	for _, vp := range s.Camp.VPs {
		var near, far []netip.Addr
		for _, d := range r.Dests {
			st := r.Stats[d]
			if st == nil {
				continue
			}
			slot, responded := st.SlotsByVP[vp.Name]
			if !responded {
				continue
			}
			if slot > 0 {
				near = append(near, d)
			} else {
				far = append(far, d)
			}
		}
		n := min(perVPCap, min(len(near), len(far)))
		if n == 0 {
			continue
		}
		var dsts []netip.Addr
		dsts = append(dsts, pickN(rng, near, n)...)
		nf := make(map[netip.Addr]bool, n)
		for _, d := range dsts {
			nf[d] = true
		}
		nearForVP[vp.Name] = nf
		dsts = append(dsts, pickN(rng, far, n)...)
		tt := make([]uint8, len(dsts))
		for i := range tt {
			tt[i] = ttls[rng.IntN(len(ttls))]
		}
		perVPdst[vp.Name] = dsts
		perVPttl[vp.Name] = tt
		probes += len(dsts)
	}

	results := s.campaign().TTLPingRRAll(perVPdst, perVPttl, s.Opts.ProbeOpts())

	type bucket struct{ sent, replied int }
	reach := make(map[uint8]*bucket)
	unreach := make(map[uint8]*bucket)
	get := func(m map[uint8]*bucket, ttl uint8) *bucket {
		b := m[ttl]
		if b == nil {
			b = &bucket{}
			m[ttl] = b
		}
		return b
	}
	for vp, rs := range results {
		for _, pr := range rs {
			m := unreach
			if nearForVP[vp][pr.Dst] {
				m = reach
			}
			b := get(m, pr.TTL)
			b.sent++
			if pr.Type == probe.EchoReply {
				b.replied++
			}
		}
	}

	res := &TTLResult{
		ReachableRate:   make(map[uint8]float64),
		UnreachableRate: make(map[uint8]float64),
		TTLs:            ttls,
		Probes:          probes,
	}
	xs := make([]float64, len(ttls))
	yr := make([]float64, len(ttls))
	yu := make([]float64, len(ttls))
	for i, ttl := range ttls {
		xs[i] = float64(ttl)
		if b := reach[ttl]; b != nil && b.sent > 0 {
			yr[i] = float64(b.replied) / float64(b.sent)
		}
		if b := unreach[ttl]; b != nil && b.sent > 0 {
			yu[i] = float64(b.replied) / float64(b.sent)
		}
		res.ReachableRate[ttl] = yr[i]
		res.UnreachableRate[ttl] = yu[i]
	}
	res.Figure5 = &analysis.Figure{
		Title:  "Figure 5: destination response rate vs initial TTL of ping-RR",
		XLabel: "initial-ttl",
		X:      xs,
	}
	res.Figure5.AddLine("rr-reachable", yr)
	res.Figure5.AddLine("rr-unreachable", yu)
	return res
}

// pickN samples n elements without replacement (n ≤ len(pool)).
func pickN(rng *rand.Rand, pool []netip.Addr, n int) []netip.Addr {
	idx := rng.Perm(len(pool))[:n]
	out := make([]netip.Addr, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// Render prints the figure and the 10–12 sweet-spot summary.
func (tr *TTLResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== §4.2 / Figure 5: choosing low-impact TTLs ==")
	fmt.Fprintf(w, "probes sent: %d\n\n", tr.Probes)
	tr.Figure5.Render(w)
	fmt.Fprintf(w, "\nat TTL 10: reachable %.0f%% respond (paper ~70%%), unreachable %.0f%% (paper ~25%%)\n",
		100*tr.ReachableRate[10], 100*tr.UnreachableRate[10])
	fmt.Fprintf(w, "at TTL 64: both populations respond fully (reachable %.0f%%, unreachable %.0f%%)\n",
		100*tr.ReachableRate[64], 100*tr.UnreachableRate[64])
}
