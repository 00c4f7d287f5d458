package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSets runs full sets of the benchmark — every workload untraced,
// then traced — each run a child process on the driver's own command
// line, so a set measures exactly what the driver measures (a run's
// peak rss is its process's). One set is `--workload all`. Several are
// the A/A mode: the same binary against itself, which shows how far a
// metric moves when nothing changed; it fails when an end-to-end metric
// spreads beyond its bound or a simulated statistic differs between sets.
func runSets(e *env, sets int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrbench:", err)
		return 2
	}
	runs := make(map[string][]*report) // by workload and kind: one report per set
	code := 0
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				rep, err := runChild(exe, e, w.name, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rrbench: set %d, %s: %v\n", set+1, w.name, err)
					return 2
				}
				if !rep.correct() {
					code = 1
				}
				key := w.name + "/" + kind(traced)
				runs[key] = append(runs[key], rep)
			}
		}
	}
	if !printSets(e, runs, sets) {
		code = 1
	}
	return code
}

func runChild(exe string, e *env, workload string, traced bool) (*report, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-daemon", e.daemonBin, "-root", e.root, "--workload", workload,
		"--seed", strconv.FormatUint(e.seed, 10), "--seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64), "--trace", trace)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	for _, kv := range os.Environ() {
		// The build was paid once, by this process's run.sh.
		if !strings.HasPrefix(kv, "RRBENCH_T0_NS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			return nil, err
		}
	}
	raw, err := os.ReadFile(reportPath(e.outDir(), workload, traced))
	if err != nil {
		return nil, err
	}
	rep := new(report)
	return rep, json.Unmarshal(raw, rep)
}

// printSets prints, per workload, every metric's median over the sets,
// its quartiles and its spread — (max − min) / median, the largest
// pairwise difference — as a Markdown table, and reports whether every
// end-to-end metric kept within its bound and every exact one repeated.
func printSets(e *env, runs map[string][]*report, sets int) bool {
	ok := true
	bound := make(map[string]float64)
	exact := make(map[string]bool)
	for _, d := range endToEnd {
		bound[d.Name] = d.Bound
	}
	for _, d := range perLayer {
		exact[d.Name] = d.Exact
	}
	fmt.Printf("\n## %d set(s), seed %d, %g s runs\n", sets, e.seed, e.seconds)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			reps := runs[w.name+"/"+kind(traced)]
			fmt.Printf("\n### %s, %s\n\n", w.name, kind(traced))
			fmt.Println("| metric | unit | median | q1 | q3 | spread | verdict |")
			fmt.Println("|---|---|---|---|---|---|---|")
			series := make(map[string][]float64)
			units := make(map[string]string)
			for _, rep := range reps {
				for _, m := range []map[string]value{rep.Metrics, rep.Extra} {
					for name, v := range m {
						series[name] = append(series[name], v.V)
						units[name] = v.Unit
					}
				}
			}
			names := make([]string, 0, len(series))
			for name := range series {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				xs := series[name]
				q1, med, q3 := pyQuartiles(xs)
				lo, hi := xs[0], xs[0]
				for _, x := range xs {
					lo, hi = min(lo, x), max(hi, x)
				}
				spread := 0.0
				if med != 0 {
					spread = (hi - lo) / math.Abs(med)
				}
				verdict := ""
				switch b, gated := bound[name]; {
				case len(xs) < sets:
					verdict, ok = "MISSING from a set", false
				case gated && !traced && sets > 1 && spread > b:
					verdict, ok = fmt.Sprintf("SPREAD beyond bound %.2f", b), false
				case gated && !traced:
					verdict = fmt.Sprintf("bound %.2f", b)
				case exact[name] && hi != lo:
					verdict, ok = "EXACT metric differs between sets", false
				case exact[name]:
					verdict = "exact"
				}
				fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.4f | %s |\n", name, units[name], med, q1, q3, spread, verdict)
			}
		}
	}
	return ok
}
