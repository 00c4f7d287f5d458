package recordroute

// Developer benchmarks: one per table and figure in the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
// Benchmarks measure the cost of regenerating each result at test scale;
// their reported custom metrics carry the reproduced headline numbers so
// `go test -bench` output doubles as a results table. Speed claims are
// not made from here but with rrbench (benchmark/, BENCHMARK.json), and
// allocation contracts are Test…Allocs tests beside the code they pin.

import (
	"fmt"
	"io"
	"net/netip"
	"testing"

	"recordroute/internal/analysis"
	"recordroute/internal/packet"
	"recordroute/internal/probe"
	"recordroute/internal/study"
	"recordroute/internal/topology"
)

// benchScale keeps benchmark topologies small enough to iterate.
const benchScale = 0.2

func benchInternet(tb testing.TB) *Internet {
	tb.Helper()
	in, err := New(WithScale(benchScale), WithProbeRate(200))
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// benchRun builds a fresh benchmark Internet, runs the named
// experiments on it at p, and returns its report.
func benchRun(b *testing.B, p Params, names ...string) Report {
	b.Helper()
	in := benchInternet(b)
	for _, name := range names {
		if err := in.Run(name, io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
	return in.Report()
}

// BenchmarkTable1ResponseRates regenerates Table 1: ping and ping-RR
// response rates by IP and AS type.
func BenchmarkTable1ResponseRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum := benchRun(b, Params{}, "table1").Table1
		b.ReportMetric(sum.RRRatioByIP, "rr/ping-byIP")
		b.ReportMetric(sum.RRRatioByAS, "rr/ping-byAS")
	}
}

// BenchmarkFigure1ClosestVPCDF regenerates Figure 1 and the §3.3
// headline reachability numbers (including alias and ping-RRudp
// recovery).
func BenchmarkFigure1ClosestVPCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum := benchRun(b, Params{}, "fig1").Reachability
		b.ReportMetric(sum.ReachableFrac, "reachable-frac")
		b.ReportMetric(sum.Within8Frac, "within8-frac")
	}
}

// benchRouteGraph builds a deterministic two-tier AS graph shaped like
// the topology generator's output: a meshed transit core, mid-tier
// providers multi-homed into it, and stub leaves under the mid tier.
// Big enough (~3k ASes) that per-destination BFS dominates setup.
func benchRouteGraph() *topology.Graph {
	const core, mid, leaf = 20, 280, 2700
	g := topology.NewGraph(core + mid + leaf)
	for i := 0; i < core; i++ {
		for j := i + 1; j < core; j++ {
			g.AddLink(i, j, topology.RelPeer)
		}
	}
	for m := 0; m < mid; m++ {
		id := core + m
		g.AddLink(id, m%core, topology.RelProvider)
		g.AddLink(id, (m*7+3)%core, topology.RelProvider)
	}
	for l := 0; l < leaf; l++ {
		id := core + mid + l
		g.AddLink(id, core+l%mid, topology.RelProvider)
		if l%3 == 0 {
			g.AddLink(id, core+(l*11+5)%mid, topology.RelProvider)
		}
	}
	return g
}

// BenchmarkRouteBuild times the route-plane build — the all-pairs
// valley-free next-hop computation that dominates topology.Build — at
// worker counts 1, 2, 4 via ComputeRoutesParallel. The flat backing
// array and per-destination row writes make output bit-identical at
// every width (the routing tests assert it); wall-clock tracks
// min(workers, GOMAXPROCS, NumCPU).
func BenchmarkRouteBuild(b *testing.B) {
	g := benchRouteGraph()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := topology.ComputeRoutesParallel(g, w)
				if r == nil {
					b.Fatal("nil routes")
				}
			}
			b.ReportMetric(float64(g.N()), "ases")
		})
	}
}

// BenchmarkReachabilityRecovery isolates the §3.3 reclassification
// passes (alias resolution plus ping-RRudp) on top of a shared
// responsiveness run.
func BenchmarkReachabilityRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum := benchRun(b, Params{}, "table1", "fig1").Reachability
		b.ReportMetric(float64(sum.AliasReclassified), "alias-reclass")
		b.ReportMetric(float64(sum.RRUDPReclassified), "rrudp-reclass")
	}
}

// BenchmarkVPResponseDistribution regenerates the §3.2 distribution.
func BenchmarkVPResponseDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(benchRun(b, Params{}, "vpdist").VPResponse.AboveTwoThirds, "above-2/3-frac")
	}
}

// BenchmarkFigure2Epochs regenerates the 2011-vs-2016 comparison (two
// full Internets, two full measurement campaigns).
func BenchmarkFigure2Epochs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum := benchRun(b, Params{}, "fig2").Epochs
		b.ReportMetric(sum.Reachable2016, "reachable-2016")
		b.ReportMetric(sum.Reachable2011, "reachable-2011")
	}
}

// BenchmarkStampAudit regenerates the §3.5 traceroute/RR AS audit.
func BenchmarkStampAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum := benchRun(b, Params{Cap: 50}, "audit").StampAudit
		b.ReportMetric(float64(sum.Always), "always-stamp")
		b.ReportMetric(float64(sum.Never), "never-stamp")
	}
}

// BenchmarkFigure3CloudDistance regenerates the cloud hop-distance
// comparison.
func BenchmarkFigure3CloudDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, f := range benchRun(b, Params{Cap: 150}, "fig3").Clouds.Within8 {
			b.ReportMetric(f, "cloud-within8-frac")
			break
		}
	}
}

// BenchmarkFigure4RateLimiting regenerates the per-VP 10-vs-100pps
// response counts.
func BenchmarkFigure4RateLimiting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum := benchRun(b, Params{Cap: 300}, "fig4").RateLimit
		b.ReportMetric(float64(len(sum.DrasticDrop)), "drastic-drop-vps")
	}
}

// BenchmarkFigure5TTLTradeoff regenerates the TTL sweep.
func BenchmarkFigure5TTLTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum := benchRun(b, Params{Cap: 100}, "fig5").TTL
		b.ReportMetric(sum.ReachableRate[10], "reach-rate@ttl10")
		b.ReportMetric(sum.UnreachableRate[10], "unreach-rate@ttl10")
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationDecode compares the reusable zero-allocation decoder
// (the gopacket DecodingLayer idiom) against allocating fresh layer
// structs per packet.
func BenchmarkAblationDecode(b *testing.B) {
	rr := packet.NewRecordRoute(9)
	for i := 0; i < 4; i++ {
		rr.Record(addrFor(i))
	}
	hdr := packet.IPv4{TTL: 32, Protocol: packet.ProtocolICMP, Src: addrFor(100), Dst: addrFor(200)}
	if err := hdr.SetRecordRoute(rr); err != nil {
		b.Fatal(err)
	}
	wire, err := hdr.Marshal(packet.NewEchoRequest(7, 9, []byte("payload")).Marshal())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reused", func(b *testing.B) {
		var p packet.Parsed
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := p.Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p packet.Parsed
			if err := p.Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationProbeOrder compares randomized against sequential
// destination order under destination-proximate rate limiting: random
// order spreads options load over limiters, the motivation for §4.1's
// methodology.
func BenchmarkAblationProbeOrder(b *testing.B) {
	run := func(b *testing.B, shuffle bool) {
		responses := 0.0
		for i := 0; i < b.N; i++ {
			cfg := topology.DefaultConfig(topology.Epoch2016).Scale(benchScale)
			cfg.EdgeRateLimitRate = 0.5 // make limiters common for contrast
			cfg.EdgeRateLimitPPS = 15
			// One replica: the limiters see every VP's load on one engine.
			s, err := study.New(cfg, study.Options{Rate: 100, Shards: 1})
			if err != nil {
				b.Fatal(err)
			}
			opts := probe.Options{Rate: 100}
			var order func(string, []netip.Addr) []netip.Addr
			if shuffle {
				order = s.Shuffler()
			}
			perVP := s.Fleet().PingRRAll(s.Data.Addrs(), opts, order)
			got := 0
			for _, rs := range perVP {
				for _, r := range rs {
					if r.Type == probe.EchoReply {
						got++
					}
				}
			}
			responses += float64(got)
		}
		b.ReportMetric(responses/float64(b.N), "responses")
	}
	b.Run("sequential", func(b *testing.B) { run(b, false) })
	b.Run("shuffled", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationVPSelection compares greedy against first-k site
// selection for Figure 1's subset coverage.
func BenchmarkAblationVPSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := topology.DefaultConfig(topology.Epoch2016).Scale(benchScale)
		s, err := study.New(cfg, study.Options{Rate: 200})
		if err != nil {
			b.Fatal(err)
		}
		r := s.RunResponsiveness()
		stats := r.Stats
		cover := analysis.CoverageFromStats(stats, 9)
		steps := analysis.GreedyCover(cover, 3)
		if len(steps) > 0 {
			b.ReportMetric(float64(steps[len(steps)-1].TotalCovered), "greedy3-cover")
		}
		// First-3 M-Lab sites by name, the naive alternative.
		naive := make(map[netip.Addr]bool)
		for i, vp := range []string{"mlab-0", "mlab-1", "mlab-2"} {
			_ = i
			for d := range cover[vp] {
				naive[d] = true
			}
		}
		b.ReportMetric(float64(len(naive)), "first3-cover")
	}
}

// BenchmarkAblationFastPath compares full event-level packet simulation
// of a ping-RR against the analytic path oracle (ForwardStampPath): the
// oracle is far cheaper but cannot express behaviour (filtering,
// policing, partial stamping) — which is why measurements run through
// the simulator and the oracle serves as ground truth only.
func BenchmarkAblationFastPath(b *testing.B) {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(benchScale)
	s, err := study.New(cfg, study.Options{Rate: 200})
	if err != nil {
		b.Fatal(err)
	}
	vp := s.Topo.VPs[len(s.Topo.VPs)-1]
	dst := s.Topo.Dests[0].Addr
	b.Run("event-sim", func(b *testing.B) {
		m := s.Camp.VP(vp.Name)
		for i := 0; i < b.N; i++ {
			done := false
			m.Prober.StartOne(probe.Spec{Dst: dst, Kind: probe.PingRR}, 0, func(probe.Result) { done = true })
			s.Camp.Eng.Run()
			if !done {
				b.Fatal("probe unresolved")
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s.Topo.ForwardStampPath(vp.Addr, dst) == nil {
				b.Fatal("no oracle path")
			}
		}
	})
}

// addrFor derives a distinct test address.
func addrFor(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
}
