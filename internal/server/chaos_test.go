package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recordroute/internal/measure"
	"recordroute/internal/results"
)

// The service-level chaos harness (ISSUE: tentpole 4). Each test
// injects one deterministic fault — a worker killed mid-phase, a disk
// that fills under the journal, a daemon killed and restarted, a
// stalled streaming client — and asserts the service-level contract:
// the fault is absorbed (retry, resume, degrade, or disconnect), the
// worker pool stays healthy, and wherever a campaign completes its
// results are identical to an unfaulted run's (the resume-equals-
// uninterrupted property, DESIGN.md §11, observed through HTTP).

// waitTerminal polls until the job reaches done/failed/canceled.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, body := get(t, ts, "/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll: %d", code)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if terminalState(st.State) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not reach a terminal state")
	return Status{}
}

// metricValue extracts "name 3"-style samples from /metrics.
func metricValue(t *testing.T, ts *httptest.Server, name string) string {
	t.Helper()
	_, body := get(t, ts, "/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	return ""
}

// TestChaosWorkerKillMidPhase: chaos scenario 1. A worker goroutine is
// killed (panic) on the shard that just journaled its third batch —
// mid-phase, the worst place. The service must contain the death,
// classify it as retryable, re-run the job resuming from its journal,
// and the retried job's render must be byte-identical to an unfaulted
// run's.
func TestChaosWorkerKillMidPhase(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, DataDir: dir,
		MaxRetries: 2, RetryBackoff: time.Millisecond})
	var armed atomic.Bool
	var batches atomic.Int64
	const killed = 3 // the batch, in journal order, whose sink dies
	s.batchHook = func(job *Job, vp string, attempt int) {
		if armed.Load() && attempt == 1 && batches.Add(1) == killed {
			// Die the worst way: the batch's lines already half in the
			// spool, its length never published. The retry must write
			// over this torn tail, not after it.
			s.mu.Lock()
			committed := job.spooled
			s.mu.Unlock()
			f, err := os.OpenFile(job.spoolPath, os.O_WRONLY, 0)
			if err == nil {
				_, err = f.WriteAt([]byte(`{"vp":"torn","dst":"100.`), committed)
				f.Close()
			}
			if err != nil {
				t.Errorf("tearing the spool: %v", err)
			}
			panic(fmt.Sprintf("chaos: killing worker mid-phase (vp %s)", vp))
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Unfaulted baseline first (hook disarmed; also warms the topology
	// cache, so the faulted job's attempts are fast).
	base := submit(t, ts, smokeSpec())
	if st := waitTerminal(t, ts, base); st.State != StateDone {
		t.Fatalf("baseline failed: %s", st.Error)
	}
	_, baseline := get(t, ts, "/jobs/"+base+"/render")
	armed.Store(true)

	id := submit(t, ts, smokeSpec())
	st := waitTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("job did not survive the worker kill: %+v", st)
	}
	if st.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (one kill, one retry)", st.Attempts)
	}
	if st.Done != st.Total || st.Total == 0 {
		t.Errorf("retried job progress %+v, want done == total > 0", st)
	}

	_, render := get(t, ts, "/jobs/"+id+"/render")
	if !bytes.Equal(render, baseline) {
		t.Errorf("retried render differs from unfaulted run:\n--- retried ---\n%s--- baseline ---\n%s", render, baseline)
	}

	// The stream accumulated across both attempts with no duplicate VPs:
	// every VP at most once (the batch whose sink the kill interrupted
	// was journaled but never streamed, so it may be the one missing).
	_, stream := get(t, ts, "/jobs/"+id+"/stream")
	perVP, err := results.ReadJSONL(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("cross-attempt stream is not valid JSONL: %v", err)
	}
	vps := st.Total - smokeShards // origin's range lines collapse into one VP key
	if len(perVP) < vps-1 || len(perVP) > vps {
		t.Errorf("cross-attempt stream covers %d VPs, want %d or %d", len(perVP), vps-1, vps)
	}
	// Exactly: the journal's batches in file order, less the killed one —
	// no chunk torn, none twice, the torn tail overwritten.
	if want := journalStream(t, filepath.Join(dir, id+".jsonl"), killed); !bytes.Equal(stream, want) {
		t.Errorf("cross-attempt stream is %d bytes, want the journal's batches less the killed one (%d bytes)", len(stream), len(want))
	}

	if got := metricValue(t, ts, "rrstudyd_jobs_retried_total"); got != "1" {
		t.Errorf("rrstudyd_jobs_retried_total = %q, want 1", got)
	}
}

// TestChaosDoubletreeKillResumes: a shard replica of a traceroute job
// dies as its first Doubletree round reaches the journal. The phase
// must fail before sealing a stop set over the rounds that completed,
// so the retry resumes the journal, replays every round, and renders
// what an unfaulted run renders; with no retry, the job fails as a
// shard panic.
func TestChaosDoubletreeKillResumes(t *testing.T) {
	var armed atomic.Bool
	prev := measure.WriteShim
	measure.WriteShim = func(_ string, f *os.File) io.Writer {
		return writerFunc(func(p []byte) (int, error) {
			if bytes.Contains(p, []byte(`"traces"`)) && armed.CompareAndSwap(true, false) {
				panic("chaos: killing a shard at its first traceroute round")
			}
			return f.Write(p)
		})
	}
	t.Cleanup(func() { measure.WriteShim = prev })

	run := func(maxRetries int) (Status, []byte) {
		s := newTestServer(t, Config{Workers: 1, QueueCap: 4, MaxRetries: maxRetries, RetryBackoff: time.Millisecond})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		id := submit(t, ts, JobSpec{Experiment: "traceroute", Scale: 0.1, Rate: 200, ShuffleSeed: 7, Shards: 2})
		st := waitTerminal(t, ts, id)
		_, render := get(t, ts, "/jobs/"+id+"/render")
		return st, render
	}
	base, baseline := run(2)
	if base.State != StateDone {
		t.Fatalf("baseline failed: %s", base.Error)
	}

	armed.Store(true)
	st, render := run(2)
	if st.State != StateDone || st.Attempts != 2 {
		t.Fatalf("job settled as %+v, want done on attempt 2", st)
	}
	if !bytes.Equal(render, baseline) {
		t.Errorf("retried render differs from unfaulted run:\n--- retried ---\n%s--- baseline ---\n%s", render, baseline)
	}

	armed.Store(true)
	if st, _ := run(-1); st.State != StateFailed || st.Class != ClassShard {
		t.Errorf("unretried job settled as %+v, want failed/%s", st, ClassShard)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (fn writerFunc) Write(p []byte) (int, error) { return fn(p) }

// TestChaosJournalWriteFailure: chaos scenario 2. The disk under the
// journal fills up mid-campaign (every write past byte N fails). The
// job must complete anyway — journaling degrades, results don't — with
// the degradation surfaced in the job status and the service counter.
func TestChaosJournalWriteFailure(t *testing.T) {
	prev := measure.WriteShim
	measure.WriteShim = func(path string, f *os.File) io.Writer {
		return &failAfterWriter{w: f, n: 8 << 10}
	}
	t.Cleanup(func() { measure.WriteShim = prev })

	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submit(t, ts, smokeSpec())
	st := waitTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("disk-full journal failed the job: %+v", st)
	}
	if !st.Degraded {
		t.Error("job status does not report the degraded journal")
	}
	if got := metricValue(t, ts, "rrstudyd_journal_degraded_total"); got != "1" {
		t.Errorf("rrstudyd_journal_degraded_total = %q, want 1", got)
	}

	// Results are unharmed: the render still matches the study golden.
	_, render := get(t, ts, "/jobs/"+id+"/render")
	golden, err := os.ReadFile(filepath.Join("..", "study", "testdata", "golden", "table1_responsiveness.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render, golden) {
		t.Errorf("degraded-journal render differs from golden:\n--- service ---\n%s--- golden ---\n%s", render, golden)
	}
}

// failAfterWriter forwards to w until n bytes have passed, then fails
// every write — ENOSPC in miniature.
type failAfterWriter struct {
	w      io.Writer
	n      int
	failed bool
}

func (fw *failAfterWriter) Write(p []byte) (int, error) {
	if fw.failed {
		return 0, fmt.Errorf("no space left on device")
	}
	if len(p) <= fw.n {
		fw.n -= len(p)
		return fw.w.Write(p)
	}
	k := fw.n
	fw.failed = true
	if k > 0 {
		fw.w.Write(p[:k])
	}
	return k, fmt.Errorf("no space left on device")
}

// TestChaosDaemonKillRestartResume: chaos scenario 3. The daemon is
// killed mid-campaign — simulated as the torn journal a SIGKILL leaves
// (cut mid-line after a few batches) — and a NEW service instance over
// the same data dir resumes the job to an identical render.
func TestChaosDaemonKillRestartResume(t *testing.T) {
	dir := t.TempDir()

	// First life: an uninterrupted run whose journal we wound.
	s1 := newTestServer(t, Config{Workers: 1, QueueCap: 4, DataDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	spec := smokeSpec()
	spec.Journal = filepath.Join(dir, "victim.jsonl")
	id := submit(t, ts1, spec)
	if st := waitTerminal(t, ts1, id); st.State != StateDone {
		t.Fatalf("first-life job failed: %s", st.Error)
	}
	_, baseline := get(t, ts1, "/jobs/"+id+"/render")
	ts1.Close()
	s1.Drain()

	// The kill: keep 4 complete VP batches, tear the 5th mid-line.
	data, err := os.ReadFile(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}
	var wound bytes.Buffer
	vps := 0
	for _, l := range bytes.SplitAfter(data, []byte("\n")) {
		if bytes.Contains(l, []byte(`"t":"vp"`)) {
			if vps++; vps > 4 {
				wound.Write(l[:len(l)/3])
				break
			}
		}
		wound.Write(l)
	}
	if err := os.WriteFile(spec.Journal, wound.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second life: a fresh server (fresh cache, fresh everything) on the
	// same data dir resumes the wounded journal.
	s2 := newTestServer(t, Config{Workers: 1, QueueCap: 4, DataDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	spec.Resume = true
	rid := submit(t, ts2, spec)
	st := waitTerminal(t, ts2, rid)
	if st.State != StateDone {
		t.Fatalf("resumed job failed after restart: %s", st.Error)
	}
	_, render := get(t, ts2, "/jobs/"+rid+"/render")
	if !bytes.Equal(render, baseline) {
		t.Errorf("post-restart render differs from first life:\n--- resumed ---\n%s--- baseline ---\n%s", render, baseline)
	}
}

// TestChaosDrainMidCampaign: chaos scenario 4, the graceful half of
// SIGTERM. Drain is called while a campaign is mid-flight with a live
// streaming client attached; the job must finish, the stream must
// deliver every batch, and the service must refuse new work (readyz
// 503) — all without deadlock between Drain, the worker, and the
// stream handler (the satellite-c race).
func TestChaosDrainMidCampaign(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	started := make(chan struct{})
	var once sync.Once
	s.batchHook = func(*Job, string, int) { once.Do(func() { close(started) }) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submit(t, ts, smokeSpec())

	// A live streaming client follows the job across the drain.
	streamc := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
		if err != nil {
			streamc <- nil
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		streamc <- body
	}()

	<-started // the campaign is mid-phase now
	s.Drain() // SIGTERM: must wait for the job, not strand it

	st := waitTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("job stranded by drain: %+v", st)
	}
	if code, _ := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain: %d, want 503", code)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after drain: %d, want 200 (alive, just not ready)", code)
	}

	select {
	case body := <-streamc:
		perVP, err := results.ReadJSONL(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("drained stream invalid: %v", err)
		}
		if vps := st.Total - smokeShards; len(perVP) != vps {
			t.Errorf("stream across drain covers %d VPs, want %d", len(perVP), vps)
		}
	case <-time.After(time.Minute):
		t.Fatal("streaming client never finished after drain")
	}
}

// TestCancelEndpoint: DELETE /jobs/{id} against a running job stops it
// at the next deterministic checkpoint, releases its journal path, and
// counts it; against an unknown job it 404s; against a finished job it
// 409s and changes nothing.
func TestCancelEndpoint(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, DataDir: dir})
	release := make(chan struct{})
	var once sync.Once
	s.startHook = func(*Job) { <-release }
	defer once.Do(func() { close(release) })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smokeSpec()
	spec.Journal = filepath.Join(dir, "victim.jsonl")
	id := submit(t, ts, spec)

	// Wait until the worker owns the job (it is parked in startHook).
	for deadline := time.Now().Add(10 * time.Second); ; {
		var st Status
		_, body := get(t, ts, "/jobs/"+id)
		json.Unmarshal(body, &st)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}

	code, body := del(t, ts, "/jobs/"+id)
	if code != http.StatusAccepted {
		t.Fatalf("cancel running job: status %d, body %s", code, body)
	}
	once.Do(func() { close(release) })
	st := waitTerminal(t, ts, id)
	if st.State != StateCanceled || st.Class != ClassCanceled {
		t.Fatalf("canceled job settled as %+v", st)
	}
	if got := metricValue(t, ts, "rrstudyd_jobs_canceled_total"); got != "1" {
		t.Errorf("rrstudyd_jobs_canceled_total = %q, want 1", got)
	}
	if code, _ := get(t, ts, "/jobs/"+id+"/render"); code != http.StatusInternalServerError {
		t.Errorf("render of canceled job: status %d, want 500", code)
	}

	// The journal path is released and holds only resume-safe records:
	// a new job may take it over.
	if _, err := s.Submit(spec); err != nil {
		t.Errorf("journal not released after cancel: %v", err)
	}

	if code, _ := del(t, ts, "/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d, want 404", code)
	}
}

// TestCancelQueuedJob: a job canceled before a worker ever picks it up
// finalizes as canceled with zero attempts, and cancel on a terminal
// job is a 409 no-op.
func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	release := make(chan struct{})
	var once sync.Once
	s.startHook = func(*Job) { <-release }
	defer once.Do(func() { close(release) })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blocker := submit(t, ts, smokeSpec()) // pins the only worker
	queued := submit(t, ts, smokeSpec())

	if code, _ := del(t, ts, "/jobs/"+queued); code != http.StatusAccepted {
		t.Fatalf("cancel queued job: status %d", code)
	}
	once.Do(func() { close(release) })

	st := waitTerminal(t, ts, queued)
	if st.State != StateCanceled || st.Attempts != 0 {
		t.Fatalf("canceled queued job settled as %+v, want canceled with 0 attempts", st)
	}
	if bst := waitTerminal(t, ts, blocker); bst.State != StateDone {
		t.Fatalf("blocker job failed: %s", bst.Error)
	}
	if code, _ := del(t, ts, "/jobs/"+blocker); code != http.StatusConflict {
		t.Errorf("cancel finished job: status %d, want 409", code)
	}
}

// TestCancelQueuedJobFreesItsSlots: a DELETEd queued job leaves its
// queue at once. Its queue slot and its tenant's quota slot are free
// before the 202 is written, and the 202 already reads canceled — a
// canceled job must not keep other tenants at 503 and its own at 429
// until a worker happens to reach it.
func TestCancelQueuedJobFreesItsSlots(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 1, TenantQuota: 2})
	started, release := make(chan struct{}), make(chan struct{})
	s.startHook = func(job *Job) {
		if job.ID == "job-1" {
			close(started)
			<-release
		}
	}
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	accept := func(tenant string) string {
		t.Helper()
		resp := submitAs(t, ts, tenant, smokeSpec())
		defer resp.Body.Close()
		var out map[string]string
		json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("tenant %s: status %d, want 202", tenant, resp.StatusCode)
		}
		return out["id"]
	}
	cancel := func(id string) Status {
		t.Helper()
		code, body := del(t, ts, "/jobs/"+id)
		var st Status
		json.Unmarshal(body, &st)
		if code != http.StatusAccepted {
			t.Fatalf("cancel %s: status %d", id, code)
		}
		return st
	}

	blocker := accept("alpha") // pins the only worker
	<-started
	queued := accept("alpha") // fills the queue and alpha's quota
	if st := cancel(queued); st.State != StateCanceled || st.Attempts != 0 {
		t.Fatalf("202 for a canceled queued job reads %+v, want canceled with 0 attempts", st)
	}
	cancel(accept("beta"))  // the queue slot came back
	cancel(accept("alpha")) // and alpha's quota slot
	cancel(blocker)
}

// TestCancelWinsOverRetry: a job DELETEd while running whose attempt
// then fails retryably settles canceled at once — no backoff, no retry
// counted.
func TestCancelWinsOverRetry(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, MaxRetries: 2, RetryBackoff: 2 * time.Second})
	started, release := make(chan struct{}), make(chan struct{})
	s.startHook = func(*Job) {
		close(started)
		<-release
		panic("chaos: worker killed after the DELETE")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submit(t, ts, smokeSpec())
	<-started
	if code, _ := del(t, ts, "/jobs/"+id); code != http.StatusAccepted {
		t.Fatalf("cancel running job: status %d", code)
	}
	close(release)
	if st := waitTerminal(t, ts, id); st.State != StateCanceled || st.Class != ClassCanceled || st.Attempts != 1 {
		t.Fatalf("deleted job settled as %+v, want canceled after its one attempt", st)
	}
	if got := metricValue(t, ts, "rrstudyd_jobs_retried_total"); got != "0" {
		t.Errorf("rrstudyd_jobs_retried_total = %q, want 0", got)
	}
	if got := metricValue(t, ts, "rrstudyd_jobs_canceled_total"); got != "1" {
		t.Errorf("rrstudyd_jobs_canceled_total = %q, want 1", got)
	}
}

// TestCancelReachesOwnWorlds: fig2 and chaos measure worlds they build
// for themselves, and probe them under the job's context, so a DELETE
// lands at their next checkpoint instead of after every world has been
// measured. A job deleted while running must settle as canceled in less
// than half the time an uncanceled run of the same spec takes.
func TestCancelReachesOwnWorlds(t *testing.T) {
	for _, spec := range []JobSpec{
		{Experiment: "fig2", Scale: 0.5, Rate: 200, ShuffleSeed: 7, Shards: 1},
		{Experiment: "chaos", Scale: 0.25, Rate: 200, ShuffleSeed: 7, Shards: 1},
	} {
		t.Run(spec.Experiment, func(t *testing.T) {
			s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
			started, release := make(chan struct{}), make(chan struct{})
			var hold atomic.Bool
			hold.Store(true)
			s.startHook = func(*Job) {
				if hold.Load() {
					started <- struct{}{}
					<-release
				}
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// Deleted while parked at the start of its attempt: the job's
			// context is done before the experiment builds a world.
			victim := submit(t, ts, spec)
			<-started
			if code, body := del(t, ts, "/jobs/"+victim); code != http.StatusAccepted {
				t.Fatalf("cancel running job: status %d, body %s", code, body)
			}
			hold.Store(false)
			t0 := time.Now()
			close(release)
			if st := waitTerminal(t, ts, victim); st.State != StateCanceled {
				t.Fatalf("deleted job settled as %+v", st)
			}
			canceled := time.Since(t0)

			t0 = time.Now()
			if st := waitTerminal(t, ts, submit(t, ts, spec)); st.State != StateDone {
				t.Fatalf("uncanceled job settled as %+v", st)
			}
			if full := time.Since(t0); canceled > full/2 {
				t.Errorf("deleted job settled after %v, an uncanceled run took %v: the cancel waited for the experiment's worlds", canceled, full)
			}
		})
	}
}

func del(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestJobDeadlineClassification: an attempt that outlives JobDeadline
// is classified "deadline" and retried within the budget; when every
// attempt expires, the job fails carrying the class and the attempt
// count, and the retry counter reflects the re-queues.
func TestJobDeadlineClassification(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4,
		JobDeadline: time.Millisecond, MaxRetries: 1, RetryBackoff: time.Millisecond})
	s.startHook = func(*Job) { time.Sleep(20 * time.Millisecond) } // outlive the deadline
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submit(t, ts, smokeSpec())
	st := waitTerminal(t, ts, id)
	if st.State != StateFailed || st.Class != ClassDeadline {
		t.Fatalf("deadline-expired job settled as %+v, want failed/deadline", st)
	}
	if st.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (budget of 1 retry)", st.Attempts)
	}
	if got := metricValue(t, ts, "rrstudyd_jobs_retried_total"); got != "1" {
		t.Errorf("rrstudyd_jobs_retried_total = %q, want 1", got)
	}
}

// TestWorkerPanicLeavesQueueHealthy (satellite c): with retries
// disabled, a worker killed by one job must fail that job alone — the
// worker goroutine survives to run the next job to completion.
func TestWorkerPanicLeavesQueueHealthy(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, MaxRetries: -1})
	s.startHook = func(job *Job) {
		if job.ID == "job-1" {
			panic("chaos: worker killed at job start")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	victim := submit(t, ts, smokeSpec())
	st := waitTerminal(t, ts, victim)
	if st.State != StateFailed || st.Class != ClassPanic {
		t.Fatalf("panicked job settled as %+v, want failed/panic", st)
	}
	if st.Attempts != 1 {
		t.Errorf("Attempts = %d with retries disabled, want 1", st.Attempts)
	}

	next := submit(t, ts, smokeSpec())
	if st := waitTerminal(t, ts, next); st.State != StateDone {
		t.Fatalf("queue unhealthy after worker panic: next job %+v", st)
	}
}

// stuffSpool commits n bytes of filler to a job's spool, as its sink
// would: written first, published second. The job must not be running
// a sink of its own (parked in startHook, say).
func stuffSpool(t *testing.T, job *Job, n int) {
	t.Helper()
	if err := os.WriteFile(job.spoolPath, bytes.Repeat([]byte("x"), n), 0o644); err != nil {
		t.Fatal(err)
	}
	job.cond.L.Lock()
	job.spooled = int64(n)
	job.cond.Broadcast()
	job.cond.L.Unlock()
}

// TestStreamHangupIsNotADrop: rrstudyd_stream_clients_dropped_total
// counts clients the write deadline disconnected. One that hangs up
// mid-stream of its own accord ends its handler too, and is not one.
func TestStreamHangupIsNotADrop(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	release := make(chan struct{})
	s.startHook = func(*Job) { <-release }
	defer close(release)
	sw := watchStreams(s)
	ts := httptest.NewServer(sw)
	defer ts.Close()

	id := submit(t, ts, smokeSpec())
	stuffSpool(t, s.Job(id), 16<<20) // the handler will be mid-copy when the client goes

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /jobs/%s/stream HTTP/1.1\r\nHost: x\r\n\r\n", id)
	if _, err := io.ReadFull(conn, make([]byte, 64<<10)); err != nil {
		t.Fatalf("first bytes of the stream: %v", err)
	}
	conn.Close()
	await(t, sw.returned, "the hung-up client's handler to return")

	if got := s.streamDropped.Load(); got != 0 {
		t.Errorf("a client hanging up counted as %d deadline drop(s)", got)
	}
	if got := metricValue(t, ts, "rrstudyd_stream_clients_dropped_total"); got != "0" {
		t.Errorf("rrstudyd_stream_clients_dropped_total = %q, want 0", got)
	}
}

// TestStreamWriteDeadlineDropsStalledReader: a /stream client that
// stops reading must be disconnected by the per-write deadline instead
// of pinning the handler (and its spool descriptor) forever.
func TestStreamWriteDeadlineDropsStalledReader(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4,
		StreamWriteTimeout: 200 * time.Millisecond})
	release := make(chan struct{})
	var once sync.Once
	s.startHook = func(*Job) { <-release }
	defer once.Do(func() { close(release) })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submit(t, ts, smokeSpec())
	job := s.Job(id)
	// Stuff the spool with more than any socket buffer will absorb, so
	// the handler's write blocks on the stalled reader.
	stuffSpool(t, job, 16<<20)

	// A raw client that sends the request and then never reads.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /jobs/%s/stream HTTP/1.1\r\nHost: x\r\n\r\n", id)

	deadline := time.Now().Add(30 * time.Second)
	for s.streamDropped.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.streamDropped.Load(); got != 1 {
		t.Fatalf("stalled reader not dropped (streamDropped = %d)", got)
	}
	if got := metricValue(t, ts, "rrstudyd_stream_clients_dropped_total"); got != "1" {
		t.Errorf("rrstudyd_stream_clients_dropped_total = %q, want 1", got)
	}
}
