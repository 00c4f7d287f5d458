package study

import (
	"fmt"
	"io"
	"net/netip"
	"sort"

	"recordroute/internal/analysis"
	"recordroute/internal/trace"
)

// RoundBudget is one doubletree round's probe economics, paired with
// what the naive arm spent on the same VP wave.
type RoundBudget struct {
	Round       int
	VPs         int
	DTProbes    int
	NaiveProbes int
	GlobalStops int
	LocalStops  int
	// SetSize is the global stop set's entry count after this round's
	// delta merge.
	SetSize int
}

// DoubletreeResult compares a Doubletree campaign (shared global +
// per-VP local stop sets, VPs probing in waves with a deterministic
// delta merge in between) against a naive full-traceroute arm over
// the identical (VP, destination) pairs.
type DoubletreeResult struct {
	VPs     int
	Dests   int
	Rounds  int
	DestCap int

	Naive    trace.Stats
	DT       trace.Stats
	PerRound []RoundBudget

	// StopSetBytes is the final merged global set in its canonical
	// codec form — the bytes the shard-determinism property compares
	// across K (identical final stop sets, DESIGN.md §14).
	StopSetBytes []byte
	StopSetLen   int

	// Interface discovery: the union over all VPs of responding
	// non-final hop addresses, per arm, and their intersection — the
	// completeness comparison (Doubletree's known blind spots are
	// paths that diverge below a backward stop).
	NaiveIfaces  int
	DTIfaces     int
	CommonIfaces int

	Fig *analysis.Figure
}

// SavedFrac is the probe-budget saving of doubletree over naive.
func (r *DoubletreeResult) SavedFrac() float64 {
	if r.Naive.Probes == 0 {
		return 0
	}
	return 1 - float64(r.DT.Probes)/float64(r.Naive.Probes)
}

// Coverage is the fraction of naive-discovered interfaces doubletree
// also discovered.
func (r *DoubletreeResult) Coverage() float64 {
	return frac(r.CommonIfaces, r.NaiveIfaces)
}

// stopSetPrefixOf maps a destination to the prefix its global-set
// entries are keyed by: the advertised prefix it belongs to.
func (s *Study) stopSetPrefixOf(a netip.Addr) netip.Prefix {
	if d := s.Topo.DestByAddr(a); d != nil {
		return d.Prefix
	}
	p, err := a.Prefix(24)
	if err != nil {
		return netip.PrefixFrom(a, a.BitLen())
	}
	return p
}

// platformVPNames lists every platform VP in campaign order.
func (s *Study) platformVPNames() []string {
	out := make([]string, 0, len(s.Topo.VPs))
	for _, vp := range s.Topo.VPs {
		out = append(out, vp.Name)
	}
	return out
}

// RunDoubletree runs both arms of the probe-budget experiment: a
// naive exhaustive traceroute of every (VP, destination) pair, then a
// Doubletree campaign over the same pairs — VPs partitioned
// round-robin into waves, each wave's forward probing stopping on the
// destination-side interfaces earlier waves fed into the global set
// (frozen at the previous merge). destCap caps the destination list
// (0 = the full hitlist); rounds <= 0 means 4. Both arms probe
// through the study's fleet, so every reported number is
// byte-identical across shard counts.
func (s *Study) RunDoubletree(destCap, rounds int) *DoubletreeResult {
	if rounds <= 0 {
		rounds = 4
	}
	dests := s.Data.Addrs()
	if destCap > 0 && len(dests) > destCap {
		dests = dests[:destCap]
	}
	vpNames := s.platformVPNames()
	if rounds > len(vpNames) {
		rounds = len(vpNames)
	}
	shuffle := s.Shuffler()
	perVPFor := func(names []string) map[string][]netip.Addr {
		m := make(map[string][]netip.Addr, len(names))
		for _, name := range names {
			m[name] = shuffle(name, dests)
		}
		return m
	}
	fleet := s.campaign()
	res := &DoubletreeResult{
		VPs: len(vpNames), Dests: len(dests), Rounds: rounds, DestCap: destCap,
	}

	// Naive arm: full traceroutes, no stop sets.
	naiveSess := trace.NewSession(s.stopSetPrefixOf)
	naive := fleet.DoubletreeAll(perVPFor(vpNames), naiveSess,
		trace.Options{Timeout: s.Opts.timeout(), Exhaustive: true})

	// Doubletree arm: VPs round-robin over waves. Paths to a
	// destination form a tree rooted near it, so a later wave's forward
	// probe meets an interface some earlier wave already reported and
	// stops; the wave's own discoveries merge into the global set
	// afterwards. Within a wave the set is frozen (DESIGN.md §14).
	res.PerRound = make([]RoundBudget, rounds)
	dtSess := trace.NewSession(s.stopSetPrefixOf)
	dtIfaces := make(map[netip.Addr]bool)
	for rd := 0; rd < rounds; rd++ {
		var wave []string
		for i, name := range vpNames {
			if i%rounds == rd {
				wave = append(wave, name)
			}
		}
		rr := fleet.DoubletreeAll(perVPFor(wave), dtSess, trace.Options{Timeout: s.Opts.timeout()})
		b := &res.PerRound[rd]
		b.Round = rd + 1
		b.VPs = len(wave)
		for _, name := range wave {
			round := rr[name]
			if round == nil {
				continue
			}
			res.DT.Add(round.Stats)
			b.DTProbes += round.Stats.Probes
			b.GlobalStops += round.Stats.GlobalStops
			b.LocalStops += round.Stats.LocalStops
			for _, t := range round.Traces {
				for _, a := range t.HopAddrs() {
					dtIfaces[a] = true
				}
			}
			if nr := naive[name]; nr != nil {
				b.NaiveProbes += nr.Stats.Probes
			}
		}
		b.SetSize = dtSess.Global.Len()
	}

	// Naive accounting over the same VPs.
	naiveIfaces := make(map[netip.Addr]bool)
	for _, name := range vpNames {
		round := naive[name]
		if round == nil {
			continue
		}
		res.Naive.Add(round.Stats)
		for _, t := range round.Traces {
			for _, a := range t.HopAddrs() {
				naiveIfaces[a] = true
			}
		}
	}

	res.NaiveIfaces = len(naiveIfaces)
	res.DTIfaces = len(dtIfaces)
	for a := range dtIfaces {
		if naiveIfaces[a] {
			res.CommonIfaces++
		}
	}

	data, err := dtSess.Global.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("study: stop-set serialization: %v", err))
	}
	res.StopSetBytes = data
	res.StopSetLen = dtSess.Global.Len()

	fig := &analysis.Figure{
		Title:  "probe budget by round: doubletree vs naive",
		XLabel: "round",
		X:      analysis.IntRange(1, rounds),
	}
	dt := make([]float64, rounds)
	nv := make([]float64, rounds)
	for i, b := range res.PerRound {
		dt[i] = float64(b.DTProbes)
		nv[i] = float64(b.NaiveProbes)
	}
	fig.AddLine("doubletree", dt)
	fig.AddLine("naive", nv)
	res.Fig = fig
	return res
}

// Render prints the probe-budget comparison.
func (r *DoubletreeResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== Doubletree: shared stop sets vs naive traceroute ==")
	fmt.Fprintf(w, "VPs: %d   destinations: %d   rounds: %d\n", r.VPs, r.Dests, r.Rounds)
	fmt.Fprintf(w, "naive full traceroute:   %d probes\n", r.Naive.Probes)
	fmt.Fprintf(w, "doubletree (stop sets):  %d probes — %.1f%% saved\n", r.DT.Probes, 100*r.SavedFrac())
	fmt.Fprintf(w, "  forward stops (global set):  %d\n", r.DT.GlobalStops)
	fmt.Fprintf(w, "  backward stops (local set):  %d\n", r.DT.LocalStops)
	fmt.Fprintf(w, "  stop-set misses:             %d\n", r.DT.Misses)
	fmt.Fprintf(w, "  stop-credited probes saved:  %d\n", r.DT.Saved)
	fmt.Fprintf(w, "  traces: %d (reached %d, dest TTL inferred unprobed %d)\n",
		r.DT.Traces, r.DT.Reached, r.DT.Inferred)
	fmt.Fprintf(w, "global stop set: %d (iface, dst-prefix) entries (%d codec bytes)\n",
		r.StopSetLen, len(r.StopSetBytes))
	fmt.Fprintf(w, "interface coverage vs naive: %d/%d (%.2f%%), doubletree-only %d\n",
		r.CommonIfaces, r.NaiveIfaces, 100*r.Coverage(), r.DTIfaces-r.CommonIfaces)
	r.Fig.Render(w)
	fmt.Fprintln(w, "# wave budgets: global/local stops and stop-set growth")
	fmt.Fprintf(w, "%-8s %6s %12s %12s %12s\n", "round", "vps", "gstops", "lstops", "set-size")
	for _, b := range r.PerRound {
		fmt.Fprintf(w, "%-8d %6d %12d %12d %12d\n", b.Round, b.VPs, b.GlobalStops, b.LocalStops, b.SetSize)
	}
}

// sortedVPNames returns the map's keys sorted, for deterministic
// iteration over per-VP rounds.
func sortedVPNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
