package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recordroute/internal/results"
	"recordroute/internal/topology"
)

// smokeSpec is the small Table 1 campaign the service tests run — the
// same parameters as the study package's golden files (scale 0.25,
// rate 200, shuffle seed 7, default world seed), so the service render
// can be diffed against testdata/golden/table1_responsiveness.txt.
// Shards is pinned so batch-checkpoint totals — len(VPs) ping-RR
// batches plus smokeShards origin ranges — don't vary with the host's
// CPU count (renders are shard-invariant either way).
func smokeSpec() JobSpec {
	return JobSpec{Experiment: "table1", Scale: 0.25, Rate: 200, ShuffleSeed: 7, Shards: smokeShards}
}

// smokeShards is smokeSpec's pinned executor width: the origin's
// destination-sharded ping phase checkpoints and streams exactly this
// many range batches before the per-VP ping-RR batches.
const smokeShards = 2

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	return s
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["id"]
}

func waitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return Status{}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestConcurrentIdenticalJobsOneBuild is the frozen-plane acceptance
// criterion: two identical jobs submitted together perform exactly ONE
// topology build between them — the second either hits the cache or
// blocks on the first's in-flight build — and still produce identical,
// correct renders: both equal to the study package's golden Table 1.
func TestConcurrentIdenticalJobsOneBuild(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := topology.Builds()
	id1 := submit(t, ts, smokeSpec())
	id2 := submit(t, ts, smokeSpec())
	st1, st2 := waitDone(t, ts, id1), waitDone(t, ts, id2)
	if st1.State != StateDone || st2.State != StateDone {
		t.Fatalf("job states: %+v / %+v", st1, st2)
	}
	if delta := topology.Builds() - before; delta != 1 {
		t.Errorf("topology builds for two identical jobs = %d, want exactly 1", delta)
	}
	if !st1.CacheHit && !st2.CacheHit {
		t.Error("neither job observed the frozen-plane cache")
	}

	_, r1 := get(t, ts, "/jobs/"+id1+"/render")
	_, r2 := get(t, ts, "/jobs/"+id2+"/render")
	if !bytes.Equal(r1, r2) {
		t.Errorf("identical jobs rendered differently:\n--- %s ---\n%s--- %s ---\n%s", id1, r1, id2, r2)
	}
	golden, err := os.ReadFile(filepath.Join("..", "study", "testdata", "golden", "table1_responsiveness.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, golden) {
		t.Errorf("service render differs from the study golden:\n--- service ---\n%s--- golden ---\n%s", r1, golden)
	}
}

// TestStreamAndStatus: the JSONL stream carries every VP's batch with
// full per-probe fidelity, and status/progress reach done/total.
func TestStreamAndStatus(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submit(t, ts, smokeSpec())
	st := waitDone(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Total == 0 || st.Done != st.Total || st.Progress != 1 {
		t.Errorf("finished status = %+v, want done == total > 0", st)
	}

	code, body := get(t, ts, "/jobs/"+id+"/stream")
	if code != http.StatusOK {
		t.Fatalf("stream: status %d", code)
	}
	perVP, err := results.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("stream is not valid JSONL: %v", err)
	}
	// The stream carries st.Total lines, but the origin's smokeShards
	// range lines collapse into its single VP key — and the origin also
	// sends a ping-RR batch, so distinct VPs = st.Total - smokeShards.
	if len(perVP) != st.Total-smokeShards {
		t.Errorf("stream covers %d VPs, want %d", len(perVP), st.Total-smokeShards)
	}
	for vp, rs := range perVP {
		if len(rs) == 0 {
			t.Errorf("VP %s streamed no results", vp)
		}
	}

	if code, _ := get(t, ts, "/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
}

// TestStreamIsReferenceEncodingAcrossRetry pins what /stream carries,
// byte for byte: the job's journaled batches in journal order, each
// result rendered as encoding/json renders results.StreamRecord under
// the batch's VP name — across a worker kill and the retry that resumes
// the journal, which streams the first attempt's batches once, never
// the batch whose sink the kill interrupted (journaled, not streamed,
// archived on the retry), and then the retry's. The byte counters at
// /metrics account for exactly those bytes.
func TestStreamIsReferenceEncodingAcrossRetry(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, DataDir: dir,
		MaxRetries: 2, RetryBackoff: time.Millisecond})
	const killed = 3 // the batch, in journal order, whose sink dies
	var batches atomic.Int64
	s.batchHook = func(job *Job, vp string, attempt int) {
		if attempt == 1 && batches.Add(1) == killed {
			panic("kill the worker inside the sink")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smokeSpec()
	spec.Journal = filepath.Join(dir, "job.jsonl")
	id := submit(t, ts, spec)
	if st := waitTerminal(t, ts, id); st.State != StateDone || st.Attempts != 2 {
		t.Fatalf("job = %+v, want done on the second attempt", st)
	}
	_, stream := get(t, ts, "/jobs/"+id+"/stream")

	journal, err := os.ReadFile(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	vpRecords := 0
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		var rec struct {
			T       string
			VP      string
			Results []results.Wire
			Groups  [][]results.Wire
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line: %v", err)
		}
		if rec.T != "vp" {
			continue
		}
		if vpRecords++; vpRecords == killed {
			continue
		}
		vp, _, _ := strings.Cut(rec.VP, "#") // an origin range is keyed "vp#shard" and streamed as the VP
		for _, g := range append(rec.Groups, rec.Results) {
			for _, w := range g {
				enc.Encode(results.StreamRecord{VP: vp, Wire: w})
			}
		}
	}
	if !bytes.Equal(stream, want.Bytes()) {
		t.Errorf("/stream (%d bytes) is not the reference encoding of the journaled batches (%d bytes)", len(stream), want.Len())
	}
	if got, want := metricValue(t, ts, "rrstudyd_stream_bytes_total"), strconv.Itoa(len(stream)); got != want {
		t.Errorf("rrstudyd_stream_bytes_total = %s, want the %s bytes streamed", got, want)
	}
	if got, want := metricValue(t, ts, "rrstudyd_journal_bytes_total"), strconv.Itoa(len(journal)); got != want {
		t.Errorf("rrstudyd_journal_bytes_total = %s, want the journal's %s bytes", got, want)
	}
}

// TestResumeOverHTTP: a journal cut mid-campaign (the artifact a killed
// daemon leaves) resumed through a fresh job skips the archived batches
// and renders identically.
func TestResumeOverHTTP(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, DataDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smokeSpec()
	spec.Journal = filepath.Join(dir, "full.jsonl")
	id := submit(t, ts, spec)
	if st := waitDone(t, ts, id); st.State != StateDone {
		t.Fatalf("baseline job failed: %s", st.Error)
	}
	_, baseline := get(t, ts, "/jobs/"+id+"/render")

	// Wound the journal the way a kill does: cut after half the VP
	// batches, mid-line.
	data, err := os.ReadFile(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	var out bytes.Buffer
	vps := 0
	for _, l := range lines {
		if bytes.Contains(l, []byte(`"t":"vp"`)) {
			vps++
			if vps > 3 {
				out.Write(l[:len(l)/2])
				break
			}
		}
		out.Write(l)
	}
	cutPath := filepath.Join(dir, "cut.jsonl")
	if err := os.WriteFile(cutPath, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	rspec := smokeSpec()
	rspec.Journal = cutPath
	rspec.Resume = true
	rid := submit(t, ts, rspec)
	st := waitDone(t, ts, rid)
	if st.State != StateDone {
		t.Fatalf("resumed job failed: %s", st.Error)
	}
	if job := s.Job(rid); job == nil || job.status().Done != st.Total {
		t.Errorf("resumed job progress %+v", st)
	}

	// The resumed stream carries only the freshly probed VPs...
	_, body := get(t, ts, "/jobs/"+rid+"/stream")
	perVP, err := results.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(perVP) != st.Total-3 {
		t.Errorf("resumed stream covers %d VPs, want %d fresh ones", len(perVP), st.Total-3)
	}
	// ...but the render is the complete campaign, identical to the
	// uninterrupted one.
	_, render := get(t, ts, "/jobs/"+rid+"/render")
	if !bytes.Equal(render, baseline) {
		t.Errorf("resumed render differs from uninterrupted:\n--- resumed ---\n%s--- baseline ---\n%s", render, baseline)
	}
}

// TestQueueBackpressure: with the one worker pinned and a one-slot
// queue, the third submission must be refused with 503 rather than
// queued without bound.
func TestQueueBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	var once sync.Once
	s.startHook = func(*Job) { <-release }
	defer once.Do(func() { close(release) })

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit(t, ts, smokeSpec()) // occupies the worker (pinned in startHook)
	waitForQueue := func(depth int) {
		deadline := time.Now().Add(5 * time.Second)
		for s.QueueDepth() != depth && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	waitForQueue(0)
	id2 := submit(t, ts, smokeSpec()) // fills the queue slot

	body, _ := json.Marshal(smokeSpec())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: status %d, want 503", resp.StatusCode)
	}

	once.Do(func() { close(release) })
	if st := waitDone(t, ts, id2); st.State != StateDone {
		t.Fatalf("queued job failed after release: %s", st.Error)
	}

	// /metrics exposes the service gauges the criteria name, plus the
	// plane-build latency histogram (at least one cache miss ran above,
	// so its _count must be non-zero).
	_, metrics := get(t, ts, "/metrics")
	for _, want := range []string{
		"rrstudyd_queue_depth",
		"rrstudyd_cache_hits_total",
		"rrstudyd_job_batches_done{job=\"job-1\"}",
		"rrstudyd_topology_builds_total",
		"rrstudyd_plane_build_seconds_bucket{le=\"+Inf\"}",
		"rrstudyd_plane_build_seconds_sum",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s:\n%s", want, metrics)
		}
	}
	for _, line := range strings.Split(string(metrics), "\n") {
		if v, ok := strings.CutPrefix(line, "rrstudyd_plane_build_seconds_count "); ok && v == "0" {
			t.Errorf("plane-build histogram observed no builds:\n%s", metrics)
		}
	}
}

// TestSubmitFloodKeepsMetricsConsistent is the regression for the
// queue-full rollback race: a flood of concurrent submissions and
// cancels against a tiny queue, with status polls and /metrics scrapes
// reading throughout, must never leave a ghost ID in the metrics order
// (which used to panic /metrics). Under -race it is also what runs the
// lifecycle's readers beside its writers.
func TestSubmitFloodKeepsMetricsConsistent(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	s.startHook = func(*Job) { <-release }
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg, readers sync.WaitGroup
	var mu sync.Mutex
	var accepted []string
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 1; i <= 16; i++ {
					if job := s.Job(fmt.Sprintf("job-%d", i)); job != nil {
						job.status()
					}
				}
				if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := s.Submit(smokeSpec())
			if err != nil {
				if err != errQueueFull {
					t.Errorf("submit: %v", err)
				}
				return
			}
			mu.Lock()
			accepted = append(accepted, job.ID)
			mu.Unlock()
			if i%2 == 0 {
				s.Cancel(job.ID)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// Every ID in the metrics order must resolve to a live job.
	s.mu.Lock()
	for _, id := range s.order {
		if s.jobs[id] == nil {
			t.Errorf("ghost job ID %s in order", id)
		}
	}
	s.mu.Unlock()
	if code, _ := get(t, ts, "/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics during flood: status %d", code)
	}
	if len(accepted) == 0 {
		t.Fatal("no submissions accepted")
	}
}

// TestDuplicateJournalRefused: two jobs naming the same journal path
// must not run concurrently — the second is refused while the first is
// queued or running, and accepted again once it finishes.
func TestDuplicateJournalRefused(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, DataDir: dir})
	release := make(chan struct{})
	var once sync.Once
	s.startHook = func(*Job) { <-release }
	defer once.Do(func() { close(release) })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smokeSpec()
	spec.Journal = filepath.Join(dir, "shared.jsonl")
	id := submit(t, ts, spec)
	if _, err := s.Submit(spec); err == nil {
		t.Fatal("second job on an in-use journal was accepted")
	}

	once.Do(func() { close(release) })
	if st := waitDone(t, ts, id); st.State != StateDone {
		t.Fatalf("first job failed: %s", st.Error)
	}
	if _, err := s.Submit(spec); err != nil {
		t.Fatalf("journal not released after job finished: %v", err)
	}
}

// TestTerminalJobEviction: finished jobs beyond RetainJobs are evicted
// (freeing their buffers) oldest-first, while newer ones stay queryable.
func TestTerminalJobEviction(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 8, RetainJobs: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		id := submit(t, ts, smokeSpec())
		if st := waitDone(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:2] {
		if code, _ := get(t, ts, "/jobs/"+id); code != http.StatusNotFound {
			t.Errorf("evicted job %s: status %d, want 404", id, code)
		}
	}
	for _, id := range ids[2:] {
		if code, _ := get(t, ts, "/jobs/"+id); code != http.StatusOK {
			t.Errorf("retained job %s: status %d, want 200", id, code)
		}
	}
}

// TestDrainRefusesAndFinishes: Drain lets accepted jobs finish and
// refuses new ones — the SIGTERM contract.
func TestDrainRefusesAndFinishes(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submit(t, ts, smokeSpec())
	s.Drain()
	if job := s.Job(id); job == nil || !job.terminal() {
		t.Fatal("Drain returned before the accepted job finished")
	}
	if _, err := s.Submit(smokeSpec()); err == nil {
		t.Fatal("submit accepted while draining")
	}
	body, _ := json.Marshal(smokeSpec())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestSubmitValidation: bad specs are refused at the door with 400.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, spec := range []JobSpec{
		{Experiment: "fig9"},
		{Experiment: "table1", Scale: -2},
		{Experiment: "table1", Epoch: 1999},
	} {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d, want 400", spec, resp.StatusCode)
		}
	}
}
