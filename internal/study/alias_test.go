package study

import (
	"fmt"
	"net/netip"
	"path/filepath"
	"slices"
	"testing"

	"recordroute/internal/alias"
	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

// aliasRun is one cell of the alias-truth matrix: the alias sets
// reachability resolved, and the true alias pairs it was asked about.
type aliasRun struct {
	topo  *topology.Topology
	sets  *alias.Sets
	truth [][2]netip.Addr
}

// runAlias runs Table 1 and reachability on seed's scale-0.15 world at
// K shards, journaled when journal is set, and returns its alias sets
// with the true pairs among its candidates: destinations left
// RR-responsive but unreachable whose recorded routes carry their own
// alias address.
func runAlias(t *testing.T, seed uint64, k int, journal string) aliasRun {
	t.Helper()
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	cfg.Seed = seed
	s, err := New(cfg, Options{Rate: 200, ShuffleSeed: 7, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	if journal != "" {
		if _, err := s.AttachJournal(journal, false); err != nil {
			t.Fatal(err)
		}
		defer s.CloseJournal()
	}
	resp := s.RunResponsiveness()
	run := aliasRun{topo: s.Topo}
	for _, d := range s.Topo.Dests {
		st := resp.Stats[d.Addr]
		if !d.GTAlias.IsValid() || st == nil || !st.RRResponsive() || st.RRReachable() {
			continue
		}
	recorded:
		for _, rs := range resp.PerVP {
			for _, r := range rs {
				if r.Dst == d.Addr && r.Type == probe.EchoReply && r.HasRR && slices.Contains(r.RR, d.GTAlias) {
					run.truth = append(run.truth, [2]netip.Addr{d.Addr, d.GTAlias})
					break recorded
				}
			}
		}
	}
	run.sets = s.RunReachability(resp).AliasSets
	if errs := s.Fleet().ShardErrors(); len(errs) > 0 {
		t.Fatalf("shard errors: %v", errs)
	}
	return run
}

// device names the simulated device that owns a: a destination host
// by its primary address (its alias address included), a router by
// name.
func (r aliasRun) device(a netip.Addr) string {
	if d := r.topo.DestByAddr(a); d != nil {
		return d.Addr.String()
	}
	for _, d := range r.topo.Dests {
		if d.GTAlias == a {
			return d.Addr.String()
		}
	}
	if rt := r.topo.RouterByAddr(a); rt != nil {
		return rt.Name()
	}
	return a.String()
}

// score returns the resolved sets' pairwise precision against the
// topology's devices, the recall of the true candidate pairs, and the
// counts behind them.
func (r aliasRun) score() (precision, recall float64, pairs, truePairs, found int) {
	for _, set := range r.sets.All() {
		for i := range set {
			for j := i + 1; j < len(set); j++ {
				pairs++
				if r.device(set[i]) == r.device(set[j]) {
					truePairs++
				}
			}
		}
	}
	for _, p := range r.truth {
		if r.sets.SameDevice(p[0], p[1]) {
			found++
		}
	}
	precision, recall = 1, 1
	if pairs > 0 {
		precision = float64(truePairs) / float64(pairs)
	}
	if len(r.truth) > 0 {
		recall = float64(found) / float64(len(r.truth))
	}
	return precision, recall, pairs, truePairs, found
}

// TestAliasVerdictsMatchTruth scores the MIDAR-style alias sets against
// the topology's ground truth on three worlds, at one and two replicas,
// journaled and not. A journaled phase starts at a quantized clock, so
// the alias probes sample every device's IP-ID far later than an
// unjournaled run does: identical sets in every cell are what show
// that the IP-ID velocity band works at any time offset. Every
// resolved pair must be a true alias, and every true candidate pair
// must be found.
func TestAliasVerdictsMatchTruth(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var want string
			for _, k := range []int{1, 2} {
				for _, journaled := range []bool{false, true} {
					path := ""
					if journaled {
						path = filepath.Join(t.TempDir(), "j.jsonl")
					}
					run := runAlias(t, seed, k, path)
					precision, recall, pairs, truePairs, found := run.score()
					t.Logf("K=%d journaled=%v: precision %.3f (%d/%d pairs), recall %.3f (%d/%d)",
						k, journaled, precision, truePairs, pairs, recall, found, len(run.truth))
					if precision != 1 {
						t.Errorf("K=%d journaled=%v: precision %.3f: %d of %d resolved pairs are not aliases",
							k, journaled, precision, pairs-truePairs, pairs)
					}
					if recall != 1 {
						t.Errorf("K=%d journaled=%v: recall %.3f: %d of %d true alias pairs missed",
							k, journaled, recall, len(run.truth)-found, len(run.truth))
					}
					got := fmt.Sprint(run.sets.All())
					if want == "" {
						want = got
					} else if got != want {
						t.Errorf("K=%d journaled=%v: alias sets differ from K=1 unjournaled:\n%s\nvs\n%s", k, journaled, got, want)
					}
				}
			}
		})
	}
}
