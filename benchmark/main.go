// Command rrbench is the repository's performance yardstick: five named
// workloads, each reporting the end-to-end metrics of BENCHMARK.json
// from an untraced run and the per-layer metrics from a traced one. It
// measures the program from outside — timing calls into the exported
// functions of each module and driving a real rrstudyd over loopback
// HTTP — and checks every output it times. README.md has the workloads,
// the metrics and how they interact; run it through run.sh:
//
//	bash benchmark/run.sh --workload campaign_k1 --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all --seed 1      # every workload, untraced then traced
//	bash benchmark/run.sh --repeat 3 --seed 1          # A/A: three full sets on one binary
//
// A single-workload run prints the table of its metrics and, as the
// last line of standard output, the driver's result object. It exits 0
// when every output verified, 1 when one did not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	started := time.Now()
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed    = flag.Uint64("seed", 1, "derives every generated input; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and the span file")
		repeat  = flag.Int("repeat", 0, "A/A mode: run this many full sets and fail if a metric spreads beyond its bound")
		daemon  = flag.String("daemon", "", "rrstudyd binary to drive (run.sh builds and passes it)")
		root    = flag.String("root", ".", "checkout root")
		emit    = flag.Bool("manifest", false, "print BENCHMARK.json as the harness's metric tables define it, and exit")
	)
	flag.Parse()
	if *emit {
		raw, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rrbench:", err)
			os.Exit(2)
		}
		os.Stdout.Write(raw)
		return
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *daemon == "" {
		fmt.Fprintln(os.Stderr, "rrbench: -daemon is required; run through benchmark/run.sh, which builds rrstudyd")
		os.Exit(2)
	}
	e := newEnv(*root, *seed, *seconds, *daemon, fullSizing)

	switch {
	case *repeat > 0:
		os.Exit(runSets(e, *repeat))
	case *name == "all":
		os.Exit(runSets(e, 1))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "rrbench: unknown workload %q (want %s, or all)\n", *name, workloadNames())
		os.Exit(2)
	}

	// run.sh stamps the moment it started; what passed until this
	// process started is the build, which set-up time includes.
	if t0, err := strconv.ParseInt(os.Getenv("RRBENCH_T0_NS"), 10, 64); err == nil {
		e.buildS = time.Duration(started.UnixNano() - t0).Seconds()
	}

	// No exit path leaves a daemon or its temp directory behind: a
	// signal, the watchdog and a panic all stop what is up first.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllDaemons()
		os.Exit(130)
	}()
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "rrbench: run exceeded 170s; stopping")
		stopAllDaemons()
		os.Exit(3)
	})
	defer func() {
		if r := recover(); r != nil {
			stopAllDaemons()
			panic(r)
		}
	}()

	rep := runWorkload(e, w, *trace == 1)
	stopAllDaemons()
	rep.print(os.Stdout)
	if err := rep.save(e.outDir()); err != nil {
		fmt.Fprintln(os.Stderr, "rrbench:", err)
	}
	line, err := rep.resultLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrbench:", err)
		os.Exit(2)
	}
	fmt.Printf("%s\n", line)
	if !rep.correct() {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// reportPath is where a run leaves its whole report — extras, quartiles
// and sample counts included — for the A/A mode to read back.
func reportPath(outDir, workload string, traced bool) string {
	return filepath.Join(outDir, workload+"."+kind(traced)+".json")
}

// kind names the two ways a workload is run.
func kind(traced bool) string {
	if traced {
		return "traced"
	}
	return "untraced"
}

func (r *report) save(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath(outDir, r.Workload, r.Traced), raw, 0o644)
}
