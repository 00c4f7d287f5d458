// Command benchguard compares a fresh `go test -bench` run against the
// checked-in BENCH_parallel.json baseline and fails (exit 1) when a
// pinned hot-path benchmark regresses its allocs/op beyond the
// tolerance. It is the CI bench-regression smoke: timing is too noisy
// to gate on in shared runners, but allocation counts are deterministic
// for these paths, so a jump means a real code change — a lost
// preallocation, an accidental per-packet allocation.
//
//	go test -bench 'AblationDecode|SimulatorForwarding' -benchtime 1x -benchmem -run '^$' . |
//	    go run ./cmd/benchguard -baseline BENCH_parallel.json
//
// Benchmarks present in only one of the two sides are reported but do
// not fail the run (the baseline regenerates via `make bench`, which may
// trail a freshly added benchmark by one commit). Baseline entries are
// keyed by (name, GOMAXPROCS, numcpu) and compared only when the
// current line ran under the same host shape — parallel stages size
// worker fleets and per-shard arenas from both knobs, so a 1-CPU
// baseline says nothing about a 16-CPU run; mismatches are reported
// and skipped (exit 0). Benchmarks matching -pin that exist on both
// sides under the same shape must stay within -tolerance; everything
// else is informational.
//
// With -min-speedup N (> 0), the guard additionally enforces shard
// scaling efficiency on the current run alone — no baseline needed:
// among benchmark lines matching -scaling-pin (whose one capture group
// is the shard count K), every K > 1 line must run at least N× faster
// than the K = 1 line at the same GOMAXPROCS. The gate is host-aware:
// a line is only eligible when the host could actually run K shards in
// parallel — its procs and its numcpu metric (reported by the benchmark
// itself; this process's runtime.NumCPU as fallback) must both be >= K.
// On undersized hosts the gate prints what it skipped and passes, so a
// laptop or a 1-CPU container never fails spuriously:
//
//	go test -bench 'Figure1StudyShards' -benchtime 2x -run '^$' . |
//	    go run ./cmd/benchguard -baseline BENCH_parallel.json -min-speedup 3
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"

	"recordroute/internal/benchfmt"
)

// defaultPin covers the hot paths the repo's perf PRs optimized:
// packet decode reuse, raw forwarding, the scheduler's per-epoch tick,
// the result encoder with the journal record built on it, and a probe
// batch's round trip. A regression in any of their allocation counts is
// a structural change, not noise. (Plane and clone costs are tier-1
// assertions now: internal/topology's *Budget tests.)
const defaultPin = `^(BenchmarkAblationDecode/reused|BenchmarkSimulatorForwarding|BenchmarkScheduleTick|BenchmarkWireEncode|BenchmarkJournalRecord|BenchmarkProbeBatch)`

// defaultScalingPin selects the shard-scaling benchmark family; the
// capture group is the shard count K.
const defaultScalingPin = `^BenchmarkFigure1StudyShards/shards=(\d+)$`

// baseline mirrors the parts of cmd/benchjson's Record that the guard
// reads back.
type baseline struct {
	Results []struct {
		Name    string             `json:"name"`
		Procs   int                `json:"procs"`
		Numcpu  int                `json:"numcpu"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"results"`
}

// hostKey identifies the execution shape a benchmark line ran under:
// allocation counts are only comparable between runs with the same
// GOMAXPROCS and the same CPU count — parallel stages size scratch
// pools, worker fleets, and per-shard arenas from both, so comparing a
// 1-CPU baseline against a 16-CPU run reports phantom regressions.
type hostKey struct {
	name   string
	procs  int
	numcpu int
}

func main() {
	basePath := flag.String("baseline", "BENCH_parallel.json", "baseline record written by cmd/benchjson")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional allocs/op increase over baseline")
	pin := flag.String("pin", defaultPin, "regexp of benchmark names whose regressions fail the run")
	minSpeedup := flag.Float64("min-speedup", 0, "when > 0, require shards=K lines (K>1) to beat shards=1 by this factor; host-aware no-op when numcpu or procs < K")
	scalingPin := flag.String("scaling-pin", defaultScalingPin, "regexp selecting shard-scaling lines; capture group 1 is the shard count")
	flag.Parse()

	pinRE, err := regexp.Compile(*pin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: bad -pin:", err)
		os.Exit(2)
	}
	scalingRE, err := regexp.Compile(*scalingPin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: bad -scaling-pin:", err)
		os.Exit(2)
	}
	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", *basePath, err)
		os.Exit(2)
	}
	// Key on (name, procs, numcpu): a baseline entry is only comparable
	// when the current line ran under the same GOMAXPROCS and CPU count
	// (see hostKey). Entries from an older benchjson without per-result
	// numcpu (zero) act as a wildcard on that axis.
	baseAllocs := make(map[hostKey]float64)
	baseNames := make(map[string]bool)
	for _, r := range base.Results {
		a, ok := r.Metrics["allocs/op"]
		if !ok {
			continue
		}
		baseAllocs[hostKey{r.Name, r.Procs, r.Numcpu}] = a
		baseNames[r.Name] = true
	}
	lookup := func(name string, procs, numcpu int) (float64, bool) {
		if a, ok := baseAllocs[hostKey{name, procs, numcpu}]; ok {
			return a, true
		}
		a, ok := baseAllocs[hostKey{name, procs, 0}] // pre-numcpu baseline
		return a, ok
	}

	failed := false
	checked, mismatched := 0, 0
	var lines []benchfmt.Result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		r, ok := benchfmt.ParseLine(sc.Text())
		if !ok {
			continue
		}
		lines = append(lines, r)
		cur, ok := r.Metrics["allocs/op"]
		if !ok {
			continue
		}
		ncpu := runtime.NumCPU()
		if v, has := r.Metrics["numcpu"]; has && v > 0 {
			ncpu = int(v)
		}
		want, ok := lookup(r.Name, r.Procs, ncpu)
		if !ok {
			if baseNames[r.Name] {
				// The baseline knows this benchmark but only from a
				// different host shape — informational, never a failure.
				if pinRE.MatchString(r.Name) {
					mismatched++
				}
				fmt.Printf("benchguard: %-50s %8.0f allocs/op (baseline from different procs/numcpu, skipped)\n", r.Name, cur)
			} else {
				fmt.Printf("benchguard: %-50s %8.0f allocs/op (no baseline, skipped)\n", r.Name, cur)
			}
			continue
		}
		limit := want * (1 + *tolerance)
		status := "ok"
		if cur > limit {
			if pinRE.MatchString(r.Name) {
				status = "REGRESSION"
				failed = true
			} else {
				status = "regressed (unpinned)"
			}
		}
		if pinRE.MatchString(r.Name) {
			checked++
		}
		fmt.Printf("benchguard: %-50s %8.0f vs baseline %8.0f allocs/op  %s\n", r.Name, cur, want, status)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	scalingOK := true
	if *minSpeedup > 0 {
		scalingOK = checkScaling(lines, scalingRE, *minSpeedup)
	}
	// A run with no pinned allocs benchmark is a harness wiring error —
	// unless the invocation is a scaling-gate run (whose input
	// legitimately holds only the scaling benchmark family), or every
	// pinned match was skipped because the baseline came from a host
	// with different procs/numcpu (a mismatched host is not miswiring).
	if checked == 0 && *minSpeedup <= 0 {
		if mismatched > 0 {
			fmt.Printf("benchguard: %d pinned benchmark(s) skipped: baseline host shape differs; nothing to compare\n", mismatched)
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "benchguard: no pinned benchmark matched both the run and the baseline")
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: allocs/op regression beyond %.0f%% tolerance\n", *tolerance*100)
		os.Exit(1)
	}
	if !scalingOK {
		fmt.Fprintf(os.Stderr, "benchguard: shard scaling below the %.2fx floor\n", *minSpeedup)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d pinned benchmark(s) within %.0f%% of baseline\n", checked, *tolerance*100)
}

// checkScaling enforces the -min-speedup floor over the current run's
// shard-scaling lines: each K>1 line is compared against the K=1 line
// of the same benchmark family at the same GOMAXPROCS. Families are
// the name up to the captured K, so one -scaling-pin may span several
// benchmark families (e.g. Figure1StudyShards and OriginPhase) without
// cross-contaminating their baselines. Lines on hosts that cannot run
// K ways in parallel (procs < K, or the line's numcpu metric — this
// process's runtime.NumCPU when absent — below K) are skipped with a
// note instead of failing: undersized hardware is not a regression.
func checkScaling(lines []benchfmt.Result, re *regexp.Regexp, min float64) bool {
	type famKey struct {
		family string
		procs  int
	}
	base := make(map[famKey]benchfmt.Result) // (family, GOMAXPROCS) → K=1 line
	type scaledLine struct {
		r   benchfmt.Result
		k   int
		fam string
	}
	var scaled []scaledLine
	for _, r := range lines {
		idx := re.FindStringSubmatchIndex(r.Name)
		if idx == nil || len(idx) < 4 || idx[2] < 0 {
			continue
		}
		k, err := strconv.Atoi(r.Name[idx[2]:idx[3]])
		if err != nil || k < 1 {
			continue
		}
		family := r.Name[:idx[2]]
		if k == 1 {
			base[famKey{family, r.Procs}] = r
		} else {
			scaled = append(scaled, scaledLine{r, k, family})
		}
	}
	ok := true
	eligible := 0
	for _, s := range scaled {
		b, have := base[famKey{s.fam, s.r.Procs}]
		if !have || b.NsPerOp <= 0 || s.r.NsPerOp <= 0 {
			fmt.Printf("benchguard: %-50s no K=1 line for %s at procs=%d, scaling unchecked\n", s.r.Name, s.fam, s.r.Procs)
			continue
		}
		ncpu := runtime.NumCPU()
		if v, has := s.r.Metrics["numcpu"]; has && v > 0 {
			ncpu = int(v)
		}
		if s.r.Procs < s.k || ncpu < s.k {
			fmt.Printf("benchguard: %-50s scaling gate skipped: host undersized (procs=%d numcpu=%d < shards=%d)\n",
				s.r.Name, s.r.Procs, ncpu, s.k)
			continue
		}
		eligible++
		speedup := b.NsPerOp / s.r.NsPerOp
		status := "ok"
		if speedup < min {
			status = "SCALING REGRESSION"
			ok = false
		}
		fmt.Printf("benchguard: %-50s %.2fx speedup over shards=1 (floor %.2fx)  %s\n",
			s.r.Name, speedup, min, status)
	}
	if eligible == 0 {
		fmt.Println("benchguard: scaling gate: no eligible line on this host; skipping")
	}
	return ok
}
