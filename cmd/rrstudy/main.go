// Command rrstudy reproduces the paper's measurement study end to end
// against a simulated Internet and prints every table and figure.
//
// Usage:
//
//	rrstudy [-scale 1.0|small|medium|large] [-seed N] [-rate PPS]
//	        [-experiment all|NAME] [-shards K] [-metrics out.json]
//	        [-trace dst=IP] [-progress]
//
// -experiment names one experiment of the study's registry, or all (the
// paper's tables and figures, in paper order); an unknown name is
// refused with the registered ones. -json and -outdir apply to whatever
// it selects: -outdir writes each experiment to <dir>/<name>.txt.
//
// -experiment traceroute runs the Doubletree engine (per-VP local stop
// sets plus a shared global (iface, dst-prefix) stop set, merged
// deterministically between rounds) against a naive exhaustive
// traceroute arm over the same pairs and reports the probe-budget
// saving; -experiment rr-vs-tr scores router- and AS-level agreement
// between ping-RR stamps and traceroute paths.
// At -scale 1.0 (the default, ≈1/100 of the paper's probing volume) the
// full run takes on the order of a minute. -scale also accepts a profile
// name: small (quick iteration), medium (= 1.0), or large (10⁵+
// advertised prefixes, approaching the paper's hitlist; a Table 1
// campaign takes minutes).
//
// Observability: -metrics captures every engine's counters into a
// per-shard snapshot with deterministic merged totals; -trace dst=<ip>
// (or vp=<name>) records the matching probe lifecycles and router
// events as JSON lines in -trace-out. Neither changes what a run
// measures.
//
// Profiling: -cpuprofile/-memprofile/-mutexprofile/-blockprofile write
// runtime/pprof captures of the run, for diagnosing campaign
// performance (shard scaling in particular) on real workloads rather
// than benchmarks. Mutex and block profiling are only switched on when
// their flags are set — both add sampling overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"recordroute"
)

// parseTraceSpec parses "dst=<ip or prefix>" or "vp=<name>" into a
// trace filter. A bare address means its /32.
func parseTraceSpec(spec string) (recordroute.TraceFilter, error) {
	key, val, ok := strings.Cut(spec, "=")
	if !ok {
		return recordroute.TraceFilter{}, fmt.Errorf("bad -trace %q: want dst=<ip> or vp=<name>", spec)
	}
	switch key {
	case "dst":
		if p, err := netip.ParsePrefix(val); err == nil {
			return recordroute.TraceFilter{DstPrefix: p}, nil
		}
		a, err := netip.ParseAddr(val)
		if err != nil {
			return recordroute.TraceFilter{}, fmt.Errorf("bad -trace destination %q: %v", val, err)
		}
		return recordroute.TraceFilter{DstPrefix: netip.PrefixFrom(a, a.BitLen())}, nil
	case "vp":
		return recordroute.TraceFilter{VP: val}, nil
	default:
		return recordroute.TraceFilter{}, fmt.Errorf("bad -trace key %q: want dst or vp", key)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rrstudy: ")
	var (
		scale      = flag.String("scale", "1.0", "topology size: a numeric factor (1.0 ≈ 1/100 of the paper) or a profile name small|medium|large (large ≈ the paper's 10⁵-prefix hitlist)")
		seed       = flag.Uint64("seed", 0, "random seed (0 = built-in default)")
		rate       = flag.Float64("rate", 20, "per-VP probing rate in packets per second")
		experiment = flag.String("experiment", "all", "experiment to run: all (the paper's tables and figures) or one registered name (an unknown name lists them)")
		liveEpochs = flag.Int("live-epochs", 3, "epochs-live: number of consecutive fault epochs to measure")
		jsonOut    = flag.String("json", "", "also write the machine-readable report of the selected experiments to this file")
		outdir     = flag.String("outdir", "", "write each selected experiment's rendering to <outdir>/<name>.txt instead of stdout")

		chaosLoss    = flag.Float64("chaos-loss", 0, "chaos: custom scenario per-direction loss probability on a quarter of links (0 = default sweep)")
		chaosOutages = flag.Float64("chaos-outages", 0, "chaos: custom scenario fraction of routers suffering a transient outage")
		chaosRetries = flag.Int("chaos-retries", 2, "chaos: recovery-arm retransmission budget")

		shards     = flag.Int("shards", 0, "campaign shard count for sharding-invariant experiments (0 = GOMAXPROCS, 1 = one replica on the study's own engine)")
		journal    = flag.String("journal", "", "checkpoint the campaign to this JSONL journal: completed per-VP batches stream to it as they finish")
		resume     = flag.Bool("resume", false, "with -journal: skip the batches the journal already holds and continue a killed run")
		metricsOut = flag.String("metrics", "", "write a metrics snapshot (per-shard counters + deterministic merge) to this JSON file")
		traceSpec  = flag.String("trace", "", "attach an event trace: dst=<ip or prefix> follows probes to matching destinations, vp=<name> follows one VP's probe lifecycle")
		traceOut   = flag.String("trace-out", "trace.jsonl", "file the -trace events are written to, as JSON lines")
		perNode    = flag.Bool("metrics-per-node", false, "break the -metrics snapshot down by emitting router/host")
		progress   = flag.Bool("progress", false, "print a live per-experiment progress line to stderr")

		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write an allocation profile taken at exit to this file")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile taken at exit to this file")
		blockProfile = flag.String("blockprofile", "", "write a goroutine-blocking profile taken at exit to this file")
	)
	flag.Parse()
	if *resume && *journal == "" {
		log.Fatal("-resume needs -journal: it continues the run that journal recorded")
	}
	names, err := recordroute.Experiments(*experiment)
	if err != nil {
		log.Fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	// Deferred: a run killed by log.Fatal writes no profiles, which is
	// fine — partial captures of a failed run mislead more than they help.
	defer writeExitProfiles(*memProfile, *mutexProfile, *blockProfile)

	start := time.Now()
	sizing := recordroute.WithScaleProfile(*scale)
	if f, err := strconv.ParseFloat(*scale, 64); err == nil {
		sizing = recordroute.WithScale(f)
	}
	inet, err := recordroute.New(
		sizing,
		recordroute.WithSeed(*seed),
		recordroute.WithProbeRate(*rate),
		recordroute.WithShards(*shards),
	)
	if err != nil {
		log.Fatal(err)
	}
	if *journal != "" {
		if err := inet.AttachJournal(*journal, *resume); err != nil {
			log.Fatal(err)
		}
		defer inet.CloseJournal()
	}
	var trace *recordroute.TraceHandle
	if *traceSpec != "" {
		filter, err := parseTraceSpec(*traceSpec)
		if err != nil {
			log.Fatal(err)
		}
		trace = inet.AttachTrace(filter, 0)
	}
	if *perNode {
		inet.EnablePerNodeMetrics()
	}
	// step wraps one experiment for the opt-in live progress line:
	// "running <name>... done (1.2s)" on stderr, keeping stdout clean
	// for the rendered tables.
	step := func(name string, fn func() error) {
		var t0 time.Time
		if *progress {
			t0 = time.Now()
			fmt.Fprintf(os.Stderr, "# running %-8s ...", name)
		}
		if err := fn(); err != nil {
			if *progress {
				fmt.Fprintln(os.Stderr, " failed")
			}
			log.Fatal(err)
		}
		if *progress {
			fmt.Fprintf(os.Stderr, " done (%v)\n", time.Since(t0).Round(time.Millisecond))
		}
	}
	fmt.Printf("# simulated Internet: %d ASes, %d destinations, %d VPs, %d clouds (built in %v)\n\n",
		inet.NumASes(), len(inet.Destinations()), len(inet.VPNames()), len(inet.CloudNames()),
		time.Since(start).Round(time.Millisecond))

	w := os.Stdout
	params := recordroute.Params{Epochs: *liveEpochs,
		ChaosLoss: *chaosLoss, ChaosOutages: *chaosOutages, ChaosRetries: *chaosRetries}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for i, name := range names {
		step(name, func() error {
			if *outdir == "" {
				if i > 0 {
					fmt.Fprintln(w)
				}
				return inet.Run(name, w, params)
			}
			path := filepath.Join(*outdir, name+".txt")
			if err := writeFileAtomic(path, func(f io.Writer) error { return inet.Run(name, f, params) }); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "# wrote %s\n", path)
			return nil
		})
	}
	if *outdir != "" {
		fmt.Fprintln(w, "# per-experiment outputs written; see -outdir")
	}
	rep := inet.Report()
	if *jsonOut != "" {
		err := writeFileAtomic(*jsonOut, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# report written to %s\n", *jsonOut)
	}
	if *metricsOut != "" {
		err := writeFileAtomic(*metricsOut, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			// The chaos sweep measures freshly built per-arm Internets,
			// so its snapshots (captured inside each arm) are the
			// meaningful ones; every other experiment probes through
			// this Internet's own engines.
			if rep.ChaosMetrics != nil {
				return enc.Encode(rep.ChaosMetrics)
			}
			return enc.Encode(inet.Metrics("campaign"))
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# metrics snapshot written to %s\n", *metricsOut)
	}
	if trace != nil {
		err := writeFileAtomic(*traceOut, func(f io.Writer) error {
			return trace.WriteJSONL(f)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# %d trace events written to %s (%d evicted)\n",
			trace.Len(), *traceOut, trace.Dropped())
	}
	fmt.Fprintf(os.Stderr, "\n# total wall time %v\n", time.Since(start).Round(time.Millisecond))
}

// writeExitProfiles flushes the end-of-run pprof captures that only
// make sense once the campaign has finished: allocation totals, mutex
// contention, and goroutine blocking. Empty paths are skipped.
func writeExitProfiles(mem, mutex, block string) {
	write := func(path, profile string, gcFirst bool) {
		if path == "" {
			return
		}
		if gcFirst {
			runtime.GC() // settle heap stats so the profile reflects the run
		}
		f, err := os.Create(path)
		if err != nil {
			log.Print(err)
			return
		}
		defer f.Close()
		if err := pprof.Lookup(profile).WriteTo(f, 0); err != nil {
			log.Print(err)
			return
		}
		fmt.Fprintf(os.Stderr, "# %s profile written to %s\n", profile, path)
	}
	write(mem, "allocs", true)
	write(mutex, "mutex", false)
	write(block, "block", false)
}

// writeFileAtomic writes through a temp file in the destination
// directory and renames it into place, so an interrupted run never
// leaves a truncated file under the final name and a concurrent reader
// sees either the old complete file or the new one.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after a successful rename
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
