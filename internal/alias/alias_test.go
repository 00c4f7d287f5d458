package alias

import (
	"net/netip"
	"testing"
	"time"

	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

// mk builds a series from (ms, id) pairs.
func mk(pairs ...[2]int) Series {
	var s Series
	for _, p := range pairs {
		s = append(s, Sample{At: time.Duration(p[0]) * time.Millisecond, ID: uint16(p[1])})
	}
	return s
}

func TestCompatibleSharedCounter(t *testing.T) {
	// One counter sampled alternately: 100, 102, 104... interleaved.
	sa := mk([2]int{0, 100}, [2]int{20, 102}, [2]int{40, 104})
	sb := mk([2]int{10, 101}, [2]int{30, 103}, [2]int{50, 105})
	if !Compatible(sa, sb, Config{}) {
		t.Error("shared counter judged incompatible")
	}
}

func TestIncompatibleIndependentCounters(t *testing.T) {
	// Two counters far apart: merged sequence jumps wildly.
	sa := mk([2]int{0, 100}, [2]int{20, 101}, [2]int{40, 102})
	sb := mk([2]int{10, 40000}, [2]int{30, 40001}, [2]int{50, 40002})
	if Compatible(sa, sb, Config{}) {
		t.Error("independent counters judged compatible")
	}
}

func TestIncompatibleEqualIDs(t *testing.T) {
	sa := mk([2]int{0, 7}, [2]int{20, 8}, [2]int{40, 9})
	sb := mk([2]int{10, 7}, [2]int{30, 8}, [2]int{50, 9})
	if Compatible(sa, sb, Config{}) {
		t.Error("duplicate IDs judged compatible")
	}
}

func TestCompatibleToleratesWrap(t *testing.T) {
	// Counter wrapping 65535 → 0 is a delta of 1 mod 2^16.
	sa := mk([2]int{0, 65534}, [2]int{20, 0}, [2]int{40, 2})
	sb := mk([2]int{10, 65535}, [2]int{30, 1}, [2]int{50, 3})
	if !Compatible(sa, sb, Config{}) {
		t.Error("wrap-around shared counter judged incompatible")
	}
}

func TestShortSeriesNeverCompatible(t *testing.T) {
	sa := mk([2]int{0, 1}, [2]int{10, 2})
	sb := mk([2]int{5, 1}, [2]int{15, 2}, [2]int{25, 3})
	if Compatible(sa, sb, Config{}) {
		t.Error("short series passed the test")
	}
}

func TestVelocityBoundRejectsFastJumps(t *testing.T) {
	// 10k increment over 10ms at MaxVelocity 2000/s → impossible.
	sa := mk([2]int{0, 0}, [2]int{20, 20000}, [2]int{40, 40000})
	sb := mk([2]int{10, 10000}, [2]int{30, 30000}, [2]int{50, 50000})
	if Compatible(sa, sb, Config{}) {
		t.Error("implausibly fast counter judged compatible")
	}
}

func TestSetsUnionCanonical(t *testing.T) {
	s := NewSets()
	s.Union(a("10.0.0.2"), a("10.0.0.1"))
	s.Union(a("10.0.0.2"), a("10.0.0.3"))
	if got := s.Canonical(a("10.0.0.3")); got != a("10.0.0.1") {
		t.Errorf("canonical = %v, want lowest member", got)
	}
	if !s.SameDevice(a("10.0.0.1"), a("10.0.0.3")) {
		t.Error("transitive union lost")
	}
	if s.SameDevice(a("10.0.0.1"), a("10.0.0.9")) {
		t.Error("unrelated address joined")
	}
	if got := s.Canonical(a("99.9.9.9")); got != a("99.9.9.9") {
		t.Error("unknown address not identity")
	}
	sets := s.All()
	if len(sets) != 1 || len(sets[0]) != 3 {
		t.Errorf("All = %v", sets)
	}
}

func TestResolveViaPairs(t *testing.T) {
	shared1 := mk([2]int{0, 10}, [2]int{20, 12}, [2]int{40, 14})
	shared2 := mk([2]int{10, 11}, [2]int{30, 13}, [2]int{50, 15})
	lone := mk([2]int{0, 50000}, [2]int{20, 50001}, [2]int{40, 50002})
	series := map[netip.Addr]Series{
		a("10.0.0.1"): shared1,
		a("10.0.0.2"): shared2,
		a("10.0.0.3"): lone,
	}
	sets := Resolve(series, AllPairs([]netip.Addr{a("10.0.0.1"), a("10.0.0.2"), a("10.0.0.3")}), Config{})
	if !sets.SameDevice(a("10.0.0.1"), a("10.0.0.2")) {
		t.Error("aliases not merged")
	}
	if sets.SameDevice(a("10.0.0.1"), a("10.0.0.3")) {
		t.Error("independent device merged")
	}
}

func TestAllPairsCount(t *testing.T) {
	got := AllPairs([]netip.Addr{a("1.1.1.1"), a("2.2.2.2"), a("3.3.3.3"), a("4.4.4.4")})
	if len(got) != 6 {
		t.Errorf("pairs = %d, want 6", len(got))
	}
}

// TestEndToEndAliasResolutionInSim drives the whole pipeline against a
// generated topology: probe a destination's two addresses (ground-truth
// aliases) plus an unrelated destination, and verify the resolver pairs
// exactly the true aliases.
func TestEndToEndAliasResolutionInSim(t *testing.T) {
	topo := topology.MustBuild(topology.DefaultConfig(topology.Epoch2016).Scale(0.15))
	var aliased *topology.Dest
	var other *topology.Dest
	for _, d := range topo.Dests {
		if d.GTAlias.IsValid() && d.GTPingResponsive && aliased == nil {
			aliased = d
		} else if d.GTPingResponsive && !d.GTAlias.IsValid() && other == nil {
			other = d
		}
	}
	if aliased == nil {
		t.Skip("no aliased destination drawn at this scale")
	}
	var vpHost *topology.VP
	for _, v := range topo.VPs {
		if !v.SourceRateLimited {
			vpHost = v
			break
		}
	}
	p := probe.New(probe.NewSimTransport(vpHost.Host, topo.Net.Engine()), 0x6001)
	cands := []netip.Addr{aliased.Addr, aliased.GTAlias, other.Addr}
	var specs []probe.Spec
	for r := 0; r < 5; r++ {
		for _, a := range cands {
			specs = append(specs, probe.Spec{Dst: a, Kind: probe.Ping})
		}
	}
	var series map[netip.Addr]Series
	p.StartBatch(specs, probe.Options{Rate: 50}, func(rs []probe.Result) { series = SeriesFrom(rs) })
	topo.Net.Engine().Run()
	if series == nil {
		t.Fatal("collection never completed")
	}
	if len(series[aliased.Addr]) < 3 || len(series[aliased.GTAlias]) < 3 {
		t.Fatalf("too few samples: %d/%d", len(series[aliased.Addr]), len(series[aliased.GTAlias]))
	}
	sets := Resolve(series, AllPairs(cands), Config{})
	if !sets.SameDevice(aliased.Addr, aliased.GTAlias) {
		t.Error("true aliases not resolved")
	}
	if sets.SameDevice(aliased.Addr, other.Addr) {
		t.Error("false alias pair resolved")
	}
}
