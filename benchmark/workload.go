package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"recordroute/internal/study"
	"recordroute/internal/topology"
)

// sizing fixes how big each workload's ops are. The full sizing is what
// the driver runs; the smoke sizing lets the test walk every code path
// in seconds.
type sizing struct {
	campaignScale float64               // campaign_k1, campaign_kn
	traceScale    float64               // trace_kn
	daemonScale   float64               // daemon_warm
	plane         topology.ScaleProfile // plane_large
	ladderScale   float64               // the layer ladder's reference spec
	microIters    int                   // iterations of a packet/netsim/probe micro-measurement
	ladderJobs    int                   // jobs of the ladder's daemon session
	setups        int                   // times an untraced run sets up; setup_s is their median
	maxOps        int                   // 0: measure for env.seconds; else stop after this many ops
}

var (
	fullSizing = sizing{campaignScale: 0.25, traceScale: 0.15, daemonScale: 0.25,
		plane: topology.ScaleLarge, ladderScale: 0.25, microIters: 200_000, ladderJobs: 8, setups: 3}
	smokeSizing = sizing{campaignScale: 0.1, traceScale: 0.1, daemonScale: 0.1,
		plane: topology.ScaleSmall, ladderScale: 0.1, microIters: 2_000, ladderJobs: 2, setups: 1, maxOps: 4}
)

// env is one run's configuration.
type env struct {
	root      string // checkout root: goldens are read from it, out/ and temp dirs live under it
	seed      uint64
	seconds   float64
	daemonBin string // rrstudyd binary; "" serves internal/server in-process (the smoke test)
	size      sizing
	shards    int     // N = min(nproc, 4): shard count of the *_kn workloads, clones per plane
	clients   int     // nproc: daemon workers and closed-loop clients
	buildS    float64 // what run.sh spent building before the harness started; part of setup_s
}

func newEnv(root string, seed uint64, seconds float64, daemonBin string, size sizing) *env {
	nproc := runtime.NumCPU()
	return &env{root: root, seed: seed, seconds: seconds, daemonBin: daemonBin, size: size,
		shards: min(nproc, 4), clients: nproc}
}

// underTrace picks the ops of a traced run that run under the tracer:
// alternate pairs, so that traced and untraced ops see the same host
// and the same worlds.
func underTrace(tr *tracer, i int) *tracer {
	if (i/len(worlds))%2 == 0 {
		return nil
	}
	return tr
}

// more reports whether a measurement that began at start and has begun
// i ops begins another: until --seconds have passed, or, in the smoke
// sizing, for maxOps ops.
func (e *env) more(i int, start time.Time) bool {
	if e.size.maxOps > 0 {
		return i < e.size.maxOps
	}
	return time.Since(start).Seconds() < e.seconds
}

func (e *env) outDir() string { return filepath.Join(e.root, "benchmark", "out") }

// tempDir makes a directory for one daemon's journals. It lives inside
// the checkout, under the build directory .gitignore already names.
func (e *env) tempDir() (string, error) {
	base := filepath.Join(e.root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

func (e *env) hostShape() map[string]string {
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"link":       "loopback",
		"fs":         fsType(e.root), // journals and temp directories are written under the checkout
	}
}

// worlds is the fixed pool of topology seeds every workload draws from.
// The cost of one op differs by some 20% between worlds (a world's
// link.tx per campaign ranges from 180k to 320k at scale 0.25), which
// would drown a 10% bound if --seed picked the worlds; so --seed picks
// the probing orders and the op order instead, and each timing is the
// mean of the per-world medians.
var worlds = [2]uint64{0x7272_0001, 0x7272_0002}

// opSpec is one generated input. The program under test only ever sees
// specs; it never sees --seed.
type opSpec struct {
	group   int // index into worlds
	world   uint64
	shuffle uint64 // per-VP probing-order seed
}

func (s opSpec) key() string { return fmt.Sprintf("w%x/s%x", s.world, s.shuffle) }

// genSpecs derives the cycle of specs a workload repeats: both worlds
// under each of n probing orders, starting from a world the seed picks.
// Seeds are derived the way the repository derives a schedule's epoch
// seeds (study.EpochSeed, a splitmix hash of base and index).
func genSpecs(seed uint64, n int) []opSpec {
	specs := make([]opSpec, 0, 2*n)
	first := int(study.EpochSeed(seed, 0) & 1)
	for i := 0; i < n; i++ {
		for j := range worlds {
			g := (first + j) % len(worlds)
			specs = append(specs, opSpec{group: g, world: worlds[g], shuffle: study.EpochSeed(seed, i+1)})
		}
	}
	return specs
}

type digest = [sha256.Size]byte

// opResult is one op as the harness saw it from outside.
type opResult struct {
	spec   opSpec
	traced bool
	wall   time.Duration // op start → its last output read
	first  time.Duration // op start → first result in the caller's hands
	root   time.Duration // the op's root span; traced ops only
	work   int64         // simulated probes sent (plane_large: prefixes built)
	hash   digest        // of everything the op rendered
	err    string        // why the op failed; "" when it did not
	job    *jobTiming    // daemon ops only
}

// session is a workload after set-up, ready to run ops.
type session interface {
	// measure runs ops until e.seconds have passed (or e.size.maxOps
	// ops), alternate pairs of them under tr when tr is not nil. window is the
	// timed window of a concurrent workload; 0 means the ops ran back to
	// back and their wall times add up.
	measure(e *env, tr *tracer) (ops []opResult, window time.Duration)
	// reference maps a spec to the output every op on it must reproduce.
	// verify adds the specs it sees first.
	reference() map[string]digest
	// peakRSSMB is VmHWM of the process under test.
	peakRSSMB() (float64, error)
	// check reports what beyond per-op outputs the workload promises,
	// and its extras.
	check(ops []opResult, rep *report)
	// close releases the session; its error fails the run.
	close() error
}

// workload is one row of BENCHMARK.json's workloads.
type workload struct {
	name string
	why  string
	// setup does everything a user pays once before steady state —
	// reference checks against the goldens, warm-up ops — and is what
	// setup_s times.
	setup func(e *env) (session, error)
}

var workloads = []workload{
	{"campaign_k1",
		"Table 1 and Figure 1 on the single shared engine: packet, netsim and probe per-packet cost does nearly all the work; no clone, merge, journal or HTTP.",
		func(e *env) (session, error) { return campaignSetup(e, 1) }},
	{"campaign_kn",
		"The same specs through the N-shard executor (clone spin-up, destination-sharded phases, ordered merge): dispatch overhead apart from per-packet cost; must render what campaign_k1 renders.",
		func(e *env) (session, error) { return campaignSetup(e, e.shards) }},
	{"trace_kn",
		"Doubletree on N shards: chained one-shot TTL-limited probes, Time Exceeded generation and quoted-header decode, the path a batch-only optimisation would tax.",
		traceSetup},
	{"daemon_warm",
		"Closed loop of nproc tenants on a real rrstudyd with both planes cached: small jobs, so fixed per-job cost (submit, dispatch, clone, journal, JSONL stream) dominates.",
		daemonSetup},
	{"plane_large",
		"Build, freeze and clone the large profile's plane (about 105k prefixes): the only workload where topology does the work, the cold start every large run and plane miss pays.",
		planeSetup},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// verify fails every op whose output differs from its spec's reference,
// or, where there is none, from the first op on the same spec.
func verify(ops []opResult, want map[string]digest) {
	for i := range ops {
		op := &ops[i]
		if op.err != "" {
			continue
		}
		ref, ok := want[op.spec.key()]
		if !ok {
			want[op.spec.key()] = op.hash
		} else if ref != op.hash {
			op.err = fmt.Sprintf("spec %s rendered %x, want %x", op.spec.key(), op.hash[:6], ref[:6])
		}
	}
}

// newReport starts a report as a failed run — one op attempted, one
// failed — which is what it stays if set-up does not get through.
func newReport(e *env, workload string, traced bool) *report {
	return &report{Workload: workload, Traced: traced, Attempted: 1, Failed: 1,
		Metrics: make(map[string]value), Extra: make(map[string]value), Host: e.hostShape()}
}

// runWorkload is one run of the benchmark: set up, measure, verify,
// summarise. An untraced run yields the end-to-end metrics, a traced one
// the per-layer metrics and the span file.
func runWorkload(e *env, w *workload, traced bool) *report {
	rep := newReport(e, w.name, traced)
	setups := e.size.setups
	if traced {
		setups = 1
	}
	var (
		sess   session
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if sess != nil {
			if err := sess.close(); err != nil {
				rep.problemf("set-up %d: %v", i, err)
			}
		}
		t0 := time.Now()
		s, err := w.setup(e)
		if err != nil {
			rep.problemf("set-up: %v", err)
			return rep
		}
		sess = s
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ops, window := sess.measure(e, tr)
	conclude(e, rep, sess, ops, window, tr)
	if traced {
		rep.expect(perLayer)
		return rep
	}
	setup := medianOf(setupS, "s")
	setup.V += e.buildS
	rep.Metrics["setup_s"] = setup
	rep.expect(endToEnd)
	return rep
}

// conclude verifies the ops a session measured, closes the session and
// fills in the report: the end-to-end metrics the ops give when tr is
// nil, else the span file and the per-layer metrics.
func conclude(e *env, rep *report, sess session, ops []opResult, window time.Duration, tr *tracer) {
	verify(ops, sess.reference())
	sess.check(ops, rep)
	rss, err := sess.peakRSSMB()
	if err != nil {
		rep.problemf("peak rss: %v", err)
	}
	if err := sess.close(); err != nil {
		rep.problemf("%v", err)
	}

	rep.Attempted, rep.Failed = len(ops), 0
	for _, op := range ops {
		if op.err != "" {
			rep.Failed++
			rep.problemf("op failed: %s", op.err)
		}
	}
	if rep.Attempted == rep.Failed {
		rep.problemf("no op succeeded")
		rep.Attempted = max(rep.Attempted, 1)
		return
	}

	if tr == nil {
		summarise(ops, window, rep)
		rep.Metrics["peak_rss_mb"] = one(rss, "MB")
		return
	}
	spans := tr.finish()
	if err := os.MkdirAll(e.outDir(), 0o755); err != nil {
		rep.problemf("%v", err)
	} else if err := writeSpans(filepath.Join(e.outDir(), rep.Workload+".trace.jsonl"), spans); err != nil {
		rep.problemf("span file: %v", err)
	}
	traceSummary(ops, spans, rep)
	runLadder(e, rep)
}

// fastDecile is the quantile the gated timings report. The hosts this
// runs on are shared and disturbed in bursts of a second or two — ops
// in a burst take 1.4x as long, and in a bad minute half of them are in
// one — so a median moves by 15% between runs of the same binary while
// the lower decile, the op's time on a momentarily quiet host, moves by
// 5%. Noise only ever adds time, so the fast end is also the better
// estimate of what the program itself costs. Medians are printed beside
// it (op_ms_p50, first_ms_p50) but not gated.
const fastDecile = 0.10

// grouped is the mean over worlds of the per-world q-quantile of
// pick(op): ops on different worlds may cost different amounts, and a
// pooled quantile would then sit in the gap between two modes and jump.
func grouped(ops []opResult, q float64, unit string, pick func(opResult) float64) value {
	var groups [len(worlds)][]float64
	var pooled []float64
	for _, op := range ops {
		groups[op.spec.group] = append(groups[op.spec.group], pick(op))
		pooled = append(pooled, pick(op))
	}
	v := medianOf(pooled, unit)
	sum, n := 0.0, 0
	for _, g := range groups {
		if len(g) > 0 {
			sum += quantile(g, q)
			n++
		}
	}
	v.V = sum / float64(n)
	return v
}

func wallMS(op opResult) float64  { return ms(op.wall) }
func firstMS(op opResult) float64 { return ms(op.first) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// good keeps the ops that count towards a timing: the ones that did not
// fail, traced or untraced as asked.
func good(ops []opResult, traced bool) []opResult {
	var out []opResult
	for _, op := range ops {
		if op.err == "" && op.traced == traced {
			out = append(out, op)
		}
	}
	return out
}

// summarise computes the end-to-end metrics that come from the ops.
func summarise(ops []opResult, window time.Duration, rep *report) {
	ok := good(ops, false)
	opMS := grouped(ok, fastDecile, "ms", wallMS)
	rep.Metrics["op_ms_p10"] = opMS
	rep.Metrics["first_ms_p10"] = grouped(ok, fastDecile, "ms", firstMS)
	rep.Extra["op_ms_p50"] = grouped(ok, 0.5, "ms", wallMS)
	rep.Extra["first_ms_p50"] = grouped(ok, 0.5, "ms", firstMS)

	var work int64
	var busy time.Duration
	for _, op := range ok {
		work += op.work
		busy += op.wall
	}
	n := float64(len(ok))
	if window > 0 {
		// Concurrent clients: completed ops and work over the window.
		rep.Metrics["ops_per_s"] = value{V: n / window.Seconds(), Unit: "1/s", N: len(ok)}
		rep.Metrics["work_per_s"] = value{V: float64(work) / window.Seconds(), Unit: "1/s", N: len(ok)}
		return
	}
	// Back-to-back ops: the window is the sum of their wall times, and
	// the work rate is the work of one op over its fast-decile time.
	rep.Metrics["ops_per_s"] = value{V: n / busy.Seconds(), Unit: "1/s", N: len(ok)}
	rep.Metrics["work_per_s"] = value{V: float64(work) / n / (opMS.V / 1e3), Unit: "1/s", N: len(ok)}
}

// traceSummary reports what the workload's own traced ops show: how much
// slower a traced op is than an untraced one, how much of an op no layer
// span explains, and whether the spans agree with the stopwatch.
func traceSummary(ops []opResult, spans []spanRec, rep *report) {
	plain := grouped(good(ops, false), fastDecile, "ms", wallMS)
	traced := good(ops, true)
	with := grouped(traced, fastDecile, "ms", wallMS)
	rep.Metrics["harness.trace_overhead_frac"] = value{V: with.V/plain.V - 1, Unit: "frac", N: len(traced)}

	self := selfByLayer(spans)
	rep.Metrics["harness.root_self_frac"] = value{V: self["harness"], Unit: "frac", N: len(traced)}
	for layer, frac := range self {
		rep.Extra["span."+layer+".self_frac"] = value{V: frac, Unit: "frac", N: len(traced)}
	}
	worst := 0.0
	for _, op := range traced {
		worst = max(worst, math.Abs(op.root.Seconds()/op.wall.Seconds()-1))
	}
	rep.Extra["span.root_vs_wall_max_frac"] = value{V: worst, Unit: "frac", N: len(traced)}
	if worst > 0.05 {
		rep.problemf("a root span differs from its op's measured wall time by %.1f%%", 100*worst)
	}
}
