package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"recordroute/internal/server"
	"recordroute/internal/study"
	"recordroute/internal/topology"
)

// daemon is one rrstudyd under test: a real process on a loopback port
// the harness picked, journaling into a temp directory of its own. The
// smoke test has no binary and serves internal/server in-process.
type daemon struct {
	base string // http://127.0.0.1:<port>
	pid  int    // the process whose VmHWM is the workload's peak rss
	http *http.Client
	// stop drains the daemon (SIGTERM), removes its temp directory and
	// reports a non-zero exit.
	stop func() error
}

// live holds the daemons that are up, so that every exit path — a
// signal, the watchdog, a panic in main — can stop them and remove
// their temp directories.
var live struct {
	sync.Mutex
	m map[*daemon]bool
}

func stopAllDaemons() {
	live.Lock()
	var ds []*daemon
	for d := range live.m {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.close()
	}
}

func (d *daemon) close() error {
	live.Lock()
	up := live.m[d]
	delete(live.m, d)
	live.Unlock()
	if !up {
		return nil
	}
	return d.stop()
}

func startDaemon(e *env) (*daemon, error) {
	dir, err := e.tempDir()
	if err != nil {
		return nil, err
	}
	d := &daemon{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * e.clients}}}
	if e.daemonBin == "" {
		err = d.serveInProcess(e, dir)
	} else {
		err = d.spawn(e, dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	live.Lock()
	if live.m == nil {
		live.m = make(map[*daemon]bool)
	}
	live.m[d] = true
	live.Unlock()
	return d, nil
}

func (d *daemon) serveInProcess(e *env, dir string) error {
	svc, err := server.New(server.Config{Workers: e.clients, DataDir: dir})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(svc.Handler())
	d.base, d.pid = ts.URL, os.Getpid()
	d.stop = func() error {
		ts.Close()
		svc.Drain()
		return os.RemoveAll(dir)
	}
	return nil
}

func (d *daemon) spawn(e *env, dir string) error {
	// A port that is free now: listen on :0, note the port, release it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()

	if err := os.MkdirAll(e.outDir(), 0o755); err != nil {
		return err
	}
	logf, err := os.OpenFile(filepath.Join(e.outDir(), "rrstudyd.stderr.log"),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(e.daemonBin, "-addr", addr, "-workers", strconv.Itoa(e.clients), "-data", dir)
	cmd.Stderr = logf
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	d.base, d.pid = "http://"+addr, cmd.Process.Pid
	d.stop = func() error {
		defer logf.Close()
		defer os.RemoveAll(dir)
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-exited:
			if err != nil {
				return fmt.Errorf("rrstudyd: %w (stderr in %s)", err, logf.Name())
			}
			return nil
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-exited
			return errors.New("rrstudyd did not drain within 20s of SIGTERM; killed")
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case werr := <-exited:
			logf.Close()
			return fmt.Errorf("rrstudyd exited before it was ready: %v (stderr in %s)", werr, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return errors.New("rrstudyd not ready within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// get reads one endpoint whole.
func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// promCounters sums /metrics samples by family name, labels dropped.
type promCounters map[string]float64

func (d *daemon) scrape() (promCounters, error) {
	body, err := d.get(context.Background(), "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(promCounters)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		name, _, _ = strings.Cut(name, "{")
		out[name] += v
	}
	return out, nil
}

// jobTiming is one job as its client saw it; every time is since the
// POST /jobs was sent.
type jobTiming struct {
	submit    time.Duration // 202 and the job id read
	streamGet time.Duration // GET /stream sent
	firstByte time.Duration // first byte of /stream
	streamEnd time.Duration // /stream at EOF
	render    time.Duration // /render body fully read
	status    time.Duration // /jobs/{id} read
	bytes     int64         // streamed
	cacheHit  bool
}

// runJob is one iteration of a closed-loop client: submit, follow the
// stream to its end, fetch the render, read the status.
func (d *daemon) runJob(tenant string, scale float64, spec opSpec, root span) (res opResult) {
	res = opResult{spec: spec, job: new(jobTiming), traced: root.t != nil}
	jt := res.job
	defer func() {
		if r := recover(); r != nil {
			res.err = fmt.Sprintf("client panic: %v", r)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fail := func(step string, err error) opResult {
		res.err = fmt.Sprintf("%s %s: %v", spec.key(), step, err)
		return res
	}

	body, _ := json.Marshal(server.JobSpec{Experiment: "table1", Scale: scale, Rate: 200,
		Shards: 1, Seed: spec.world, ShuffleSeed: spec.shuffle})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return fail("submit", err)
	}
	req.Header.Set("X-Tenant", tenant)
	t0 := time.Now()
	sp := root.child("server.submit")
	resp, err := d.http.Do(req)
	if err != nil {
		return fail("submit", err)
	}
	accepted, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	jt.submit = time.Since(t0)
	if err != nil {
		return fail("submit", err)
	}
	// Anything but 202 — a 429 or 503 refusal too — is a failed op.
	if resp.StatusCode != http.StatusAccepted {
		return fail("submit", fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(accepted)))
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(accepted, &sub); err != nil || sub.ID == "" {
		return fail("submit", fmt.Errorf("no job id in %q", accepted))
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/jobs/"+sub.ID+"/stream", nil)
	if err != nil {
		return fail("stream", err)
	}
	jt.streamGet = time.Since(t0)
	sp = root.child("server.stream")
	wait := sp.child("server.first_byte")
	resp, err = d.http.Do(req)
	if err != nil {
		return fail("stream", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fail("stream", errors.New(resp.Status))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	_, err = br.Peek(1)
	wait.end()
	jt.firstByte = time.Since(t0)
	res.first = jt.firstByte
	var lines int64
	for chunk := make([]byte, 64<<10); err == nil; {
		var n int
		n, err = br.Read(chunk)
		lines += int64(bytes.Count(chunk[:n], []byte{'\n'}))
		jt.bytes += int64(n)
	}
	resp.Body.Close()
	sp.end()
	jt.streamEnd = time.Since(t0)
	if err != io.EOF {
		return fail("stream", err)
	}
	sp.count("lines", lines)

	sp = root.child("server.render")
	render, err := d.get(ctx, "/jobs/"+sub.ID+"/render")
	sp.end()
	jt.render = time.Since(t0)
	if err != nil {
		return fail("render", err)
	}

	sp = root.child("server.status")
	raw, err := d.get(ctx, "/jobs/"+sub.ID)
	sp.end()
	jt.status = time.Since(t0)
	stopClock(&res, root, t0)
	if err != nil {
		return fail("status", err)
	}
	var st server.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		return fail("status", err)
	}
	if st.State != server.StateDone {
		return fail("status", fmt.Errorf("job is %s: %s", st.State, st.Error))
	}
	jt.cacheHit = st.CacheHit
	res.work = lines
	res.hash = jobDigest(render, lines)
	return res
}

// jobDigest covers both outputs of a job: its render and how many
// result lines it streamed.
func jobDigest(render []byte, lines int64) (d digest) {
	h := sha256.New()
	h.Write(render)
	fmt.Fprintf(h, "\nlines=%d\n", lines)
	h.Sum(d[:0])
	return d
}

// daemonSession is daemon_warm after set-up: a daemon with both planes
// cached, and for every spec the output an in-process run gives.
type daemonSession struct {
	d     *daemon
	scale float64
	specs []opSpec
	want  map[string]digest
	// cold are the plane-miss jobs of the warm-up, one per world.
	cold          []opResult
	before, after promCounters
}

func (s *daemonSession) reference() map[string]digest { return s.want }
func (s *daemonSession) peakRSSMB() (float64, error)  { return peakRSSMB(s.d.pid) }
func (s *daemonSession) close() error                 { return s.d.close() }

// inProcessJob runs a job's spec the way the daemon's worker does — a
// replica of the cached plane, a journaled single-shard fleet, Table 1
// — without the service around it.
func inProcessJob(e *env, snap *topology.Snapshot, spec opSpec) (render []byte, probes int64, err error) {
	s, err := study.NewFromTopology(snap.Clone(), study.Options{Rate: 200, ShuffleSeed: spec.shuffle, Shards: 1})
	if err != nil {
		return nil, 0, err
	}
	dir, err := e.tempDir()
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	if _, err := s.AttachJournal(filepath.Join(dir, "job.jsonl"), false); err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	s.RunResponsiveness().Render(&buf)
	if err := s.CloseJournal(); err != nil {
		return nil, 0, err
	}
	if msg := shardErr(s); msg != "" {
		return nil, 0, errors.New(msg)
	}
	return buf.Bytes(), simProbes(s), nil
}

func worldSnapshot(scale float64, world uint64) (*topology.Snapshot, error) {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(scale)
	cfg.Seed = world
	topo, err := topology.Build(cfg)
	if err != nil {
		return nil, err
	}
	return topology.SnapshotOf(topo), nil
}

func daemonSetup(e *env) (session, error) { return newDaemonSession(e) }

func newDaemonSession(e *env) (_ *daemonSession, err error) {
	d, err := startDaemon(e)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	s := &daemonSession{d: d, scale: e.size.daemonScale, specs: genSpecs(e.seed, 8), want: make(map[string]digest)}

	// Reference check: the golden spec through the daemon.
	gold := d.runJob("bench-golden", 0.25, opSpec{shuffle: 7}, span{})
	if gold.err != "" {
		return nil, errors.New(gold.err)
	}
	g, err := goldenStudy(1)
	if err != nil {
		return nil, err
	}
	var table1 bytes.Buffer
	g.RunResponsiveness().Render(&table1)
	if err := checkGolden(e, "table1_responsiveness", table1.Bytes()); err != nil {
		return nil, err
	}
	if gold.hash != jobDigest(table1.Bytes(), simProbes(g)) {
		return nil, errors.New("the golden spec through the daemon differs from table1_responsiveness.txt or streamed another number of lines than probes were sent")
	}

	// The first job on each world misses the plane cache and builds the
	// plane: it is the warm-up, and must give what an in-process run of
	// its spec gives.
	for _, spec := range s.specs[:len(worlds)] {
		snap, err := worldSnapshot(s.scale, spec.world)
		if err != nil {
			return nil, err
		}
		render, probes, err := inProcessJob(e, snap, spec)
		if err != nil {
			return nil, fmt.Errorf("in-process reference for %s: %w", spec.key(), err)
		}
		s.want[spec.key()] = jobDigest(render, probes)
		cold := d.runJob("bench-0", s.scale, spec, span{})
		if cold.err == "" && cold.job.cacheHit {
			cold.err = spec.key() + ": the first job on a world hit the plane cache"
		}
		s.cold = append(s.cold, cold)
	}
	verify(s.cold, s.want)
	for _, op := range s.cold {
		if op.err != "" {
			return nil, fmt.Errorf("warm-up job: %s", op.err)
		}
	}
	return s, nil
}

// measure is the closed loop: one client per CPU, each sending its next
// job the moment the previous one's status is read, no think time.
func (s *daemonSession) measure(e *env, tr *tracer) ([]opResult, time.Duration) {
	s.before, _ = s.d.scrape()
	perClient := make([][]opResult, e.clients)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("bench-%d", c)
			for {
				i := int(next.Add(1)) - 1
				if !e.more(i, start) {
					return
				}
				root := underTrace(tr, i).root(i, "op")
				perClient[c] = append(perClient[c], s.d.runJob(tenant, s.scale, s.specs[i%len(s.specs)], root))
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(start)
	s.after, _ = s.d.scrape()
	var ops []opResult
	for _, rs := range perClient {
		ops = append(ops, rs...)
	}
	return ops, window
}

// check holds the workload to what it claims to measure — a timed
// window of plane-cache hits with no submission refused — and reports
// the latencies only a service has.
func (s *daemonSession) check(ops []opResult, rep *report) {
	if s.before == nil || s.after == nil {
		rep.problemf("/metrics could not be scraped around the timed window")
		return
	}
	delta := func(name string) float64 { return s.after[name] - s.before[name] }
	hits, misses := delta("rrstudyd_cache_hits_total"), delta("rrstudyd_cache_misses_total")
	if misses != 0 {
		rep.problemf("%v plane-cache misses inside the timed window; daemon_warm measures hits only", misses)
	}
	if rejected := delta("rrstudyd_tenant_rejected_total"); rejected != 0 {
		rep.problemf("%v submissions refused inside the timed window", rejected)
	}
	for _, op := range ops {
		if op.err == "" && !op.job.cacheHit {
			rep.problemf("job on %s reports a plane-cache miss", op.spec.key())
		}
	}
	if hits+misses > 0 {
		rep.Extra["window.cache_hit_frac"] = value{V: hits / (hits + misses), Unit: "frac", N: int(hits + misses)}
	}

	var firstByte, render []float64
	for _, op := range good(ops, rep.Traced) {
		firstByte = append(firstByte, ms(op.job.firstByte))
		render = append(render, ms(op.job.render))
	}
	if len(render) == 0 {
		return
	}
	// first_ms is the first byte and op_ms ends one status GET after the
	// render; what is left to add are the tails. A p90 has a tenth of
	// the jobs beyond it: ten or more in a full run of some hundred.
	rep.Extra["first_byte_ms_p90"] = value{V: quantile(firstByte, 0.9), Unit: "ms", N: len(firstByte)}
	rep.Extra["render_ms_p50"] = medianOf(render, "ms")
	rep.Extra["render_ms_p90"] = value{V: quantile(render, 0.9), Unit: "ms", N: len(render)}
}
