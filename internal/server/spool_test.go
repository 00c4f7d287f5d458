package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"recordroute/internal/probe"
	"recordroute/internal/results"
)

// The spool's contract (DESIGN.md §11): a job's result lines live in
// <DataDir>/<id>.stream and nowhere in the daemon's heap; every /stream
// reader — live, late, or outliving its job's eviction — copies the
// committed prefix of that file; the file goes when the job does.

// journalStream renders what a job's /stream must carry, from its
// journal: every vp record's batch, in file order, as results.AppendJSONL
// lines under the VP's name (an origin range is keyed "vp#shard" and
// streamed as the VP). skip names the records, counted from 1, whose
// sink a test killed: journaled, never streamed, archived on the retry.
func journalStream(t *testing.T, path string, skip ...int) []byte {
	t.Helper()
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
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
		vpRecords++
		skipped := false
		for _, k := range skip {
			skipped = skipped || k == vpRecords
		}
		if skipped {
			continue
		}
		vp, _, _ := strings.Cut(rec.VP, "#")
		for _, g := range append(rec.Groups, rec.Results) {
			rs := make([]probe.Result, len(g))
			for i, w := range g {
				rs[i] = w.Result()
			}
			want = results.AppendJSONL(want, vp, rs)
		}
	}
	return want
}

// streamWatch wraps the service handler so a test can tell when a
// /stream request has arrived and when its handler has returned.
type streamWatch struct {
	http.Handler
	arrived, returned chan struct{}
}

func watchStreams(s *Server) *streamWatch {
	return &streamWatch{Handler: s.Handler(),
		arrived: make(chan struct{}, 16), returned: make(chan struct{}, 16)}
}

func (sw *streamWatch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/stream") {
		sw.arrived <- struct{}{}
		defer func() { sw.returned <- struct{}{} }()
	}
	sw.Handler.ServeHTTP(w, r)
}

func await(t *testing.T, c <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-c:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestStreamLateReaderEqualsLiveFollower: a reader that attaches before
// the job's first batch and follows it live, and one that attaches after
// the job is done, are one code path over one file — they receive
// identical bytes, and those are the journal's batches in file order.
func TestStreamLateReaderEqualsLiveFollower(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, DataDir: dir})
	release := make(chan struct{})
	s.startHook = func(*Job) { <-release }
	sw := watchStreams(s)
	ts := httptest.NewServer(sw)
	defer ts.Close()

	id := submit(t, ts, smokeSpec())
	livec := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
		if err != nil {
			livec <- nil
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		livec <- body
	}()
	await(t, sw.arrived, "the live follower's request") // the job has not probed anything yet
	close(release)

	if st := waitTerminal(t, ts, id); st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	var live []byte
	select {
	case live = <-livec:
	case <-time.After(time.Minute):
		t.Fatal("live follower never reached EOF")
	}
	_, late := get(t, ts, "/jobs/"+id+"/stream")
	_, again := get(t, ts, "/jobs/"+id+"/stream")

	want := journalStream(t, filepath.Join(dir, id+".jsonl"))
	if len(want) == 0 {
		t.Fatal("journal holds no batches")
	}
	if !bytes.Equal(live, want) {
		t.Errorf("live follower read %d bytes, not the journal's batches in file order (%d bytes)", len(live), len(want))
	}
	if !bytes.Equal(late, want) || !bytes.Equal(again, want) {
		t.Errorf("late readers read %d and %d bytes, want the live follower's %d", len(late), len(again), len(want))
	}
	if spool, err := os.ReadFile(filepath.Join(dir, id+".stream")); err != nil || !bytes.Equal(spool, want) {
		t.Errorf("spool file holds %d bytes (%v), want exactly the stream's %d", len(spool), err, len(want))
	}
}

// TestStreamReaderOutlivesEviction: a reader holding a stream open while
// RetainJobs evicts its job keeps its descriptor — it reads every
// committed byte to EOF — while the job is gone over HTTP and its spool
// file gone from the data directory.
func TestStreamReaderOutlivesEviction(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, DataDir: dir, RetainJobs: 1})
	release := make(chan struct{})
	s.startHook = func(job *Job) {
		if job.ID == "job-1" {
			<-release
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// More filler ahead of the results than the socket buffers absorb, so
	// the handler sits blocked mid-copy, descriptor open, while the
	// reader dawdles.
	const filler = 16 << 20
	id := submit(t, ts, smokeSpec())
	job := s.Job(id)
	stuffSpool(t, job, filler)

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /jobs/%s/stream HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", id)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadFull(resp.Body, make([]byte, 4096)); err != nil {
		t.Fatalf("first bytes of the stream: %v", err)
	}

	close(release)
	if st := waitTerminal(t, ts, id); st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	next := submit(t, ts, smokeSpec()) // its completion evicts job-1
	if st := waitTerminal(t, ts, next); st.State != StateDone {
		t.Fatalf("evicting job failed: %s", st.Error)
	}
	if code, _ := get(t, ts, "/jobs/"+id+"/stream"); code != http.StatusNotFound {
		t.Errorf("evicted job's /stream: status %d, want 404", code)
	}
	if _, err := os.Stat(job.spoolPath); !os.IsNotExist(err) {
		t.Errorf("evicted job's spool still in the data directory (stat: %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".jsonl")); err != nil {
		t.Errorf("evicted job's journal did not survive: %v", err)
	}

	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading on after eviction: %v", err)
	}
	s.mu.Lock()
	committed := job.spooled
	s.mu.Unlock()
	if got := int64(4096 + len(rest)); got != committed {
		t.Fatalf("reader got %d bytes across the eviction, want the %d committed", got, committed)
	}
	tail := rest[filler-4096:]
	if want := journalStream(t, filepath.Join(dir, id+".jsonl")); !bytes.Equal(tail, want) {
		t.Errorf("results behind the filler: %d bytes, want the journal's %d", len(tail), len(want))
	}
}

// TestSpoolWriteFailureIsJournalIO: a spool that cannot be written — the
// disk fills under it, played by a symlink to /dev/full — must not yield
// a stream that looks complete and is not. The attempt fails as
// journal-io, retryably; once the disk has room the retry resumes from
// the journal and the stream is every batch but the one journaled just
// before the failed write, which the retry finds archived.
func TestSpoolWriteFailureIsJournalIO(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to play the full disk")
	}
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, DataDir: dir,
		MaxRetries: 1, RetryBackoff: time.Millisecond})
	s.startHook = func(job *Job) {
		s.mu.Lock()
		attempt := job.attempts
		s.mu.Unlock()
		var err error
		if attempt == 1 {
			err = os.Symlink("/dev/full", job.spoolPath)
		} else {
			err = os.Remove(job.spoolPath) // room again: the retry creates a real file
		}
		if err != nil {
			t.Error(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smokeSpec()
	spec.Shards = 1 // one shard: exactly one batch is journaled before the attempt stops
	id := submit(t, ts, spec)
	st := waitTerminal(t, ts, id)
	if st.State != StateDone || st.Attempts != 2 {
		t.Fatalf("job = %+v, want done on the second attempt", st)
	}
	if got := metricValue(t, ts, "rrstudyd_jobs_retried_total"); got != "1" {
		t.Errorf("rrstudyd_jobs_retried_total = %q, want 1", got)
	}
	_, stream := get(t, ts, "/jobs/"+id+"/stream")
	if want := journalStream(t, filepath.Join(dir, id+".jsonl"), 1); !bytes.Equal(stream, want) {
		t.Errorf("stream after the spool failure is %d bytes, want the journal's batches less the first (%d bytes)", len(stream), len(want))
	}

	// With no room on any attempt the job fails, and says why.
	s.startHook = func(job *Job) {
		os.Remove(job.spoolPath)
		if err := os.Symlink("/dev/full", job.spoolPath); err != nil {
			t.Error(err)
		}
	}
	st = waitTerminal(t, ts, submit(t, ts, spec))
	if st.State != StateFailed || st.Class != ClassJournalIO || !strings.Contains(st.Error, "stream spool") {
		t.Errorf("job on a full disk settled as %+v, want failed/journal-io naming the spool", st)
	}
}

// TestSpoolsRemovedByDrainAndSweptAtNew: Drain leaves no spool behind,
// and New removes the spools a SIGKILL orphaned — those and nothing else:
// journals and schedule checkpoints are what a restart resumes from.
func TestSpoolsRemovedByDrainAndSweptAtNew(t *testing.T) {
	dir := t.TempDir()
	spools := func() []string {
		m, _ := filepath.Glob(filepath.Join(dir, "*.stream"))
		return m
	}

	s1, err := New(Config{Workers: 1, QueueCap: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s1.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); job.status().State != StateDone; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", job.status())
		}
	}
	if got := spools(); len(got) != 1 {
		t.Fatalf("a retained job's spool should be on disk; found %v", got)
	}
	s1.Drain()
	if got := spools(); len(got) != 0 {
		t.Errorf("spools left after Drain: %v", got)
	}

	keep := map[string]string{
		"job-9.jsonl":       `{"t":"meta"}` + "\n",
		"sched-1.json":      `{"id":"sched-1","tenant":"default","state":"done","index":null}`,
		"sched-1-e0.jsonl":  `{"t":"meta"}` + "\n",
		"notes.stream.txt":  "not a spool",
		"job-1.stream.save": "nor this",
	}
	for name, body := range keep {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"job-9.stream", "job-10.stream"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphaned by a SIGKILL\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := newTestServer(t, Config{Workers: 1, QueueCap: 4, DataDir: dir})
	if got := spools(); len(got) != 0 {
		t.Errorf("orphaned spools survived New: %v", got)
	}
	for name, body := range keep {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != body {
			t.Errorf("New touched %s: %q, %v", name, got, err)
		}
	}
	if s2.Schedule("sched-1") == nil {
		t.Error("schedule checkpoint not restored beside the sweep")
	}
}

// TestDaemonHeapIndependentOfHistory is the memory invariant the spool
// exists for: what the daemon's heap holds after a collection does not
// grow with the number of finished jobs it retains. 8 jobs in and 80
// jobs in (64 retained) may differ by less than one job's stream — when
// streams lived in the heap they differed by 56 of them.
func TestDaemonHeapIndependentOfHistory(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	spec := smokeSpec()
	spec.Scale, spec.Shards = 0.1, 1 // small jobs: the invariant is about how many, not how big
	run := func(n int) {
		t.Helper()
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/2; i++ {
					job, err := s.Submit(spec)
					if err != nil {
						t.Error(err)
						return
					}
					s.mu.Lock()
					for !job.terminal() {
						job.cond.Wait()
					}
					state := job.state
					s.mu.Unlock()
					if state != StateDone {
						t.Errorf("%s: %+v", job.ID, job.status())
					}
				}
			}()
		}
		wg.Wait()
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties what the first moved to sync.Pool victims
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	run(8)
	early := liveHeap()
	oneStream := s.streamBytes.Load() / 8
	run(72)
	late := liveHeap()

	s.mu.Lock()
	retained := len(s.jobs)
	s.mu.Unlock()
	if retained != 64 {
		t.Fatalf("%d jobs retained after 80, want RetainJobs' 64", retained)
	}
	t.Logf("live heap: %d B after 8 jobs, %d B after 80 (64 retained); one stream is %d B", early, late, oneStream)
	if oneStream == 0 || late-early >= oneStream {
		t.Errorf("live heap grew %d B between 8 and 80 finished jobs, want less than one job's stream (%d B)", late-early, oneStream)
	}
}
