package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef declares one metric of BENCHMARK.json. The tables below are
// the harness's side of that file; the smoke test holds the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a simulated statistic: a pure function of the inputs
	// that must repeat bit-identically for one seed on any host, at any
	// speed. The A/A mode checks it.
	Exact bool
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them: the driver gates each metric on each
// workload, so a metric that only one workload has (the daemon's
// first-byte and p90 latencies) is printed as an extra instead.
//
// What an op, its first result and its work are, per workload, is in
// README.md; times are host wall time.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p10", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_ms_p10", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer are the metrics of single layers, named after the module
// they time. They come from the traced run: the layer ladder (ladder.go)
// gives each module's unit costs on one reference spec, the same on
// every workload, and the harness.* pair describes the workload's own
// traced ops.
var perLayer = []metricDef{
	{Name: "packet.decode_rr_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.decode_plain_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.append_rr_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.quoted_rr_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "netsim.hop_ns_rr", Unit: "ns", Better: "lower"},
	{Name: "netsim.hop_ns_plain", Unit: "ns", Better: "lower"},
	{Name: "netsim.allocs_per_hop_rr", Unit: "count", Better: "lower"},
	{Name: "netsim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "netsim.slowpath_frac", Unit: "frac", Better: "lower", Exact: true},
	{Name: "netsim.ratelimit_drop_frac", Unit: "frac", Better: "lower", Exact: true},

	{Name: "probe.batch_ns_per_probe", Unit: "ns", Better: "lower"},
	{Name: "probe.one_ns_per_probe", Unit: "ns", Better: "lower"},
	{Name: "probe.allocs_per_probe", Unit: "count", Better: "lower"},
	{Name: "probe.matched_frac", Unit: "frac", Better: "higher", Exact: true},
	{Name: "probe.timeout_frac", Unit: "frac", Better: "lower", Exact: true},

	{Name: "measure.origin_phase_s", Unit: "s", Better: "lower"},
	{Name: "measure.pingrr_phase_s", Unit: "s", Better: "lower"},
	{Name: "measure.spinup_ms", Unit: "ms", Better: "lower"},
	{Name: "measure.shard_speedup", Unit: "x", Better: "higher"},
	{Name: "measure.journal_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "measure.journal_bytes_per_probe", Unit: "B", Better: "lower", Exact: true},

	{Name: "study.responsiveness_s", Unit: "s", Better: "lower"},
	{Name: "study.reachability_s", Unit: "s", Better: "lower"},
	{Name: "study.doubletree_s", Unit: "s", Better: "lower"},
	{Name: "study.render_ms", Unit: "ms", Better: "lower"},
	{Name: "study.self_frac", Unit: "frac", Better: "lower"},
	{Name: "study.allocs_per_probe", Unit: "count", Better: "lower"},
	{Name: "study.bytes_per_probe", Unit: "B", Better: "lower"},

	{Name: "trace.naive_probes", Unit: "count", Better: "lower", Exact: true},
	{Name: "trace.doubletree_probes", Unit: "count", Better: "lower", Exact: true},
	{Name: "trace.probes_saved_frac", Unit: "frac", Better: "higher", Exact: true},
	{Name: "trace.stopset_bytes", Unit: "B", Better: "lower", Exact: true},

	{Name: "topology.build_s", Unit: "s", Better: "lower"},
	{Name: "topology.freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.heap_mb_per_plane", Unit: "MB", Better: "lower"},
	{Name: "topology.prefixes", Unit: "count", Better: "higher", Exact: true},

	{Name: "results.encode_ns_per_result", Unit: "ns", Better: "lower"},
	{Name: "results.decode_ns_per_result", Unit: "ns", Better: "lower"},
	{Name: "results.bytes_per_result", Unit: "B", Better: "lower", Exact: true},

	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.accept_to_first_byte_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.stream_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "server.render_get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.status_get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.metrics_get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.cold_first_byte_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_frac", Unit: "frac", Better: "higher", Exact: true},
	{Name: "server.affinity_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "server.plane_build_s_sum", Unit: "s", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "harness.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "harness.root_self_frac", Unit: "frac", Better: "lower"},
}

// runSeconds is how long the driver has one run measure. With set-up
// repeated three times, or the traced run's ladder, on top, a run takes
// 18 to 25 s, so the driver's 114 runs and two builds fit its 3420 s.
const runSeconds = 15

// manifest renders BENCHMARK.json from the tables above, so that the
// file the driver reads and the metrics the harness emits cannot drift
// apart: `rrbench -manifest` writes it, the smoke test compares it.
func manifest() ([]byte, error) {
	type workloadRow struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endToEndRow struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type perLayerRow struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadRow `json:"workloads"`
		EndToEnd   []endToEndRow `json:"end_to_end"`
		PerLayer   []perLayerRow `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadRow{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, endToEndRow{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, perLayerRow{d.Name, d.Unit, d.Better})
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	return append(raw, '\n'), err
}

// value is one measured number with what it was measured from.
type value struct {
	V      float64
	Unit   string
	N      int     // samples behind V; 1 for a single measurement
	Q1, Q3 float64 // quartiles of those samples, when N >= 4
}

func one(v float64, unit string) value { return value{V: v, Unit: unit, N: 1} }

// medianOf summarises samples by their median and quartiles.
func medianOf(xs []float64, unit string) value {
	if len(xs) == 0 {
		return value{V: math.NaN(), Unit: unit}
	}
	v := value{V: quantile(xs, 0.5), Unit: unit, N: len(xs)}
	if len(xs) >= 4 {
		v.Q1, v.Q3 = quantile(xs, 0.25), quantile(xs, 0.75)
	}
	return v
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// pyQuartiles returns the quartiles as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which
// is how the driver measures a metric's run-to-run spread.
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// report is what one run of one workload produced.
type report struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	// Problems lists every verification failure; a run is correct when
	// there are none.
	Problems []string
	// Metrics holds the BENCHMARK.json metrics of this run's kind: the
	// end-to-end ones untraced, the per-layer ones traced.
	Metrics map[string]value
	// Extra holds numbers that belong to one workload only; they are
	// printed and checked by the A/A mode but are not in BENCHMARK.json.
	Extra map[string]value
	// Host is the host shape recorded with every run.
	Host map[string]string
}

func (r *report) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.Problems) == 0 }

// expect checks that the report carries exactly the metrics of defs,
// each with its declared unit and a finite value.
func (r *report) expect(defs []metricDef) {
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			r.problemf("metric %s not measured", d.Name)
		case v.Unit != d.Unit:
			r.problemf("metric %s has unit %q, want %q", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.V) || math.IsInf(v.V, 0):
			r.problemf("metric %s is %v", d.Name, v.V)
			r.Metrics[d.Name] = value{Unit: v.Unit}
		}
	}
	if len(r.Metrics) > len(defs) {
		known := make(map[string]bool, len(defs))
		for _, d := range defs {
			known[d.Name] = true
		}
		for name := range r.Metrics {
			if !known[name] {
				r.problemf("metric %s is not declared in BENCHMARK.json", name)
			}
		}
	}
}

// print writes the human-readable table: every metric by name with its
// value, unit and sample count.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (%s): %d ops attempted, %d failed ==\n", r.Workload, kind(r.Traced), r.Attempted, r.Failed)
	var host []string
	for k, v := range r.Host {
		host = append(host, k+"="+v)
	}
	sort.Strings(host)
	fmt.Fprintf(w, "host: %s\n", strings.Join(host, " "))
	printValues(w, r.Metrics)
	if len(r.Extra) > 0 {
		fmt.Fprintln(w, "-- not in BENCHMARK.json --")
		printValues(w, r.Extra)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

func printValues(w io.Writer, m map[string]value) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		fmt.Fprintf(w, "%-38s %14.6g %-6s n=%d", name, v.V, v.Unit, v.N)
		if v.Q1 != 0 || v.Q3 != 0 {
			fmt.Fprintf(w, "  q1=%.6g q3=%.6g", v.Q1, v.Q3)
		}
		fmt.Fprintln(w)
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultCell `json:"metrics"`
}

type resultCell struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine() ([]byte, error) {
	line := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]resultCell, len(r.Metrics))}
	for name, v := range r.Metrics {
		line.Metrics[name] = resultCell{Value: v.V, Unit: v.Unit}
	}
	return json.Marshal(line)
}
