package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"recordroute/internal/measure"
	"recordroute/internal/obs"
	"recordroute/internal/study"
	"recordroute/internal/topology"
)

// Config sizes the campaign service.
type Config struct {
	// Workers is the worker-pool width: how many campaigns execute
	// concurrently. Default 2.
	Workers int
	// QueueCap bounds the number of accepted-but-not-running jobs.
	// Submissions beyond it are refused with 503 — backpressure, not
	// unbounded memory. Default 16.
	QueueCap int
	// CacheCap bounds the frozen-plane cache (distinct topology
	// configs). Default 4.
	CacheCap int
	// DataDir is where per-job journals (<id>.jsonl, kept) and result
	// spools (<id>.stream, removed with the job) live. Default: a
	// "rrstudyd" directory under the OS temp dir.
	DataDir string
	// RetainJobs bounds how many finished (done/failed/canceled) jobs
	// stay queryable; beyond it the oldest are evicted along with their
	// render and their spool file. Journals survive eviction. Default 64.
	RetainJobs int
	// JobDeadline bounds one execution attempt's wall-clock time; 0
	// means no deadline. Expiry is observed at the campaign's
	// deterministic checkpoint boundaries (DESIGN.md §13), classified
	// as the retryable "deadline" failure class, and — because every
	// attempt journals its completed batches — the next attempt resumes
	// from where the expired one stopped, so a deadline acts as a
	// progress lease, not a hard kill.
	JobDeadline time.Duration
	// MaxRetries is the per-job retry budget for retryable failure
	// classes (see classRetryable). 0 means the default (2); negative
	// disables retries entirely.
	MaxRetries int
	// RetryBackoff is the delay before a failed job's first retry; each
	// further retry doubles it, capped at 30s. 0 means 500ms.
	RetryBackoff time.Duration
	// JournalFsync syncs the journal file after every checkpoint
	// record, extending crash-safety from process kills to machine
	// crashes at a per-checkpoint I/O cost.
	JournalFsync bool
	// StreamWriteTimeout bounds each write to a /stream client; a
	// reader stalled longer than this is disconnected instead of
	// pinning the handler (and its spool descriptor) forever.
	// 0 means 30s; negative disables.
	StreamWriteTimeout time.Duration

	// TenantQuota caps each tenant's in-flight jobs (queued, running or
	// retrying, schedule epochs included); submissions beyond it get 429
	// with Retry-After — per-tenant QoS, distinct from the global 503
	// backpressure. 0 means unlimited.
	TenantQuota int
	// TenantRate/TenantBurst add token-bucket admission per tenant:
	// each accepted submission costs one token, refilled at TenantRate
	// per second up to TenantBurst (default: the rate, min 1). A zero
	// rate disables the bucket. Internal schedule epochs are exempt —
	// the schedule paid its token at creation.
	TenantRate  float64
	TenantBurst float64
}

func (c Config) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return 2
	default:
		return c.MaxRetries
	}
}

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return 500 * time.Millisecond
	}
	return c.RetryBackoff
}

func (c Config) streamWriteTimeout() time.Duration {
	switch {
	case c.StreamWriteTimeout < 0:
		return 0
	case c.StreamWriteTimeout == 0:
		return 30 * time.Second
	default:
		return c.StreamWriteTimeout
	}
}

// maxRetryBackoff caps the exponential retry backoff.
const maxRetryBackoff = 30 * time.Second

// backoffFor returns the capped exponential delay before retry n
// (1-based) of a job.
func (c Config) backoffFor(retry int) time.Duration {
	d := c.retryBackoff()
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= maxRetryBackoff {
			return maxRetryBackoff
		}
	}
	return min(d, maxRetryBackoff)
}

// JobSpec is the submit body: study.Spec, the one run contract the
// facade resolves too. Its Journal and Resume fields are the daemon's:
// the journal path (default DataDir/<job>.jsonl) and whether completed
// batches found there are skipped.
type JobSpec = study.Spec

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateRetrying = "retrying" // failed retryably; waiting out the backoff before re-queueing
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Failure classes. Every failed attempt is classified so the retry
// policy is a property of the failure, not of the error text: classes
// caused by the environment (a crashed worker, a full disk, an expired
// deadline) are retried with the journal carrying the finished batches
// forward, classes caused by the job itself (a bad spec, a topology
// that cannot build) fail immediately — retrying a deterministic error
// only burns the budget.
const (
	ClassSpec      = "spec"        // invalid job spec resolved after submit — deterministic, terminal
	ClassTopology  = "topology"    // topology build error — deterministic, terminal
	ClassJournalIO = "journal-io"  // journal attach/resume I/O failure — environmental, retryable
	ClassPanic     = "panic"       // worker goroutine panic — retryable
	ClassShard     = "shard-panic" // shard replica died mid-campaign — retryable
	ClassDeadline  = "deadline"    // attempt exceeded JobDeadline — retryable (resume makes progress)
	ClassCanceled  = "canceled"    // DELETE /jobs/{id} — terminal by request
)

// classRetryable reports whether a failure class earns another attempt.
func classRetryable(class string) bool {
	switch class {
	case ClassJournalIO, ClassPanic, ClassShard, ClassDeadline:
		return true
	}
	return false
}

// Job is one submitted campaign. Result lines accumulate in the spool
// file, one write per VP batch as the campaign completes it; render
// holds the finished table.
type Job struct {
	ID   string
	Spec JobSpec
	// journal is the resolved journal path, fixed at submit time so the
	// server can refuse a second job writing the same file. It stays
	// reserved across retries and is released when the job settles.
	journal string
	// tenant is the submitting tenant ("default" when anonymous); its
	// quota slot is released when the job settles.
	tenant string
	// digest is the topology digest resolved at submit time — the
	// plane-cache key, reused by runOnce; preferred is the worker it
	// hashes to (dispatcher affinity).
	digest    string
	preferred int
	// spoolPath is the job's result stream, <DataDir>/<id>.stream: a file
	// only the running attempt's stream sink appends to and every /stream
	// reader copies through a descriptor of its own, so the daemon's heap
	// holds no result bytes of any job (DESIGN.md §11).
	spoolPath string
	// sched and epoch name the schedule epoch an epoch job runs; sched is
	// nil for a submitted job.
	sched *Schedule
	epoch int

	// cond wakes the job's waiters — /stream followers, status pollers.
	// Its locker is the lifecycle's mutex, which guards every field below:
	// the lifecycle writes the state, class, error and attempt fields, the
	// running attempt its progress.
	cond            *sync.Cond
	state           string
	err             string
	class           string             // failure class of the most recent failed attempt
	attempts        int                // execution attempts started
	gen             uint64             // retry generation; a timer armed for an older one is stale
	cancelRequested bool               // DELETE arrived while running; honored at the next checkpoint
	cancelRun       context.CancelFunc // cancels the in-flight attempt; nil between attempts

	degraded  bool // the journal degraded during some attempt
	cacheHit  bool
	done      int   // completed batch checkpoints (archived + freshly probed)
	total     int   // batch checkpoints the campaign will complete; 0 = unknown
	spooled   int64 // committed spool length: bytes written, then published here
	render    []byte
	reachable []netip.Addr // an epoch job's RR-reachable set (schedule epoch diffs)
}

// Status is the job-status JSON.
type Status struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Class    string `json:"class,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	// Done counts completed batch checkpoints; Total is how many the
	// job completes in all, when its experiment knows that exactly, and
	// 0 (unknown) otherwise.
	Done     int     `json:"done"`
	Total    int     `json:"total"`
	Progress float64 `json:"progress"`
}

func (j *Job) status() Status {
	j.cond.L.Lock()
	defer j.cond.L.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() Status {
	s := Status{ID: j.ID, State: j.state, Error: j.err, Class: j.class,
		Attempts: j.attempts, Degraded: j.degraded,
		CacheHit: j.cacheHit, Done: j.done, Total: j.total}
	if j.total > 0 {
		s.Progress = float64(j.done) / float64(j.total)
	}
	return s
}

// Server is the campaign service: submit jobs, poll status, stream
// results, cancel, scrape metrics. Create with New, serve via Handler,
// stop with Drain.
type Server struct {
	// The job and schedule lifecycle: every state change goes through its
	// events, and its mutex guards jobs, tenants and schedules.
	*lifecycle
	cache *planeCache

	// buildSeconds is the plane-build latency histogram behind the
	// /metrics rrstudyd_plane_build_seconds family: one observation per
	// frozen-plane cache miss (build + snapshot wall-clock).
	buildSeconds *obs.PromHistogram

	wg        sync.WaitGroup
	persistMu sync.Mutex // serializes schedule checkpoint writes

	degradedTotal  atomic.Int64 // jobs whose journal degraded (write errors swallowed)
	streamDropped  atomic.Int64 // /stream clients disconnected by the write deadline
	streamBytes    atomic.Int64 // result-line bytes committed to job spools
	journalBytes   atomic.Int64 // bytes written to job journals
	affinityHits   atomic.Int64 // jobs executed by their plane-affinity worker
	affinityMisses atomic.Int64 // jobs executed via work stealing

	// startHook, when set (tests), runs at the top of each job
	// execution — a seam for making workers dwell deterministically, or
	// crash (a panic here is a worker death the lifecycle must absorb).
	startHook func(*Job)
	// batchHook, when set (tests), runs inside the journal sink on the
	// shard goroutine that completed the batch — the chaos harness's
	// seam for killing a worker mid-phase (a panic here dies exactly
	// where a real mid-campaign fault would).
	batchHook func(job *Job, vp string, attempt int)
}

// New starts a campaign service with cfg's pool sizes; workers run
// until Drain.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 16
	}
	if cfg.RetainJobs < 1 {
		cfg.RetainJobs = 64
	}
	if cfg.DataDir == "" {
		cfg.DataDir = filepath.Join(os.TempDir(), "rrstudyd")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	sweepSpools(cfg.DataDir)
	s := &Server{
		lifecycle: newLifecycle(cfg),
		cache:     newPlaneCache(cfg.CacheCap),
		// Bounds straddle the profiles the service actually builds:
		// small smoke planes land in the millisecond buckets, full-scale
		// plane builds in the seconds range.
		buildSeconds: obs.NewPromHistogram(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30),
	}
	s.cache.onBuild = s.buildSeconds.Observe
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	if err := s.loadSchedules(); err != nil {
		return nil, err
	}
	return s, nil
}

// Drain stops accepting jobs, lets queued and running campaigns finish,
// and returns when the pool is idle — the graceful-shutdown half of the
// daemon's SIGTERM handling. Jobs waiting out a retry backoff are not
// granted their next attempt: they settle as failed with the original
// failure preserved, and their journals keep the completed batches for
// a manual resume. Journals make even an ungraceful kill recoverable;
// drain just finishes the cheap way.
func (s *Server) Drain() {
	s.apply(s.lifecycle.drain())
	s.wg.Wait()
	// Nothing is live now: draining again unlinks the retained spools.
	s.apply(s.lifecycle.drain())
}

// Submit enqueues a job for the anonymous tenant, refusing with an
// error when the service is draining, the queue is full, or the job's
// journal is already in use by a queued/running job.
func (s *Server) Submit(spec JobSpec) (*Job, error) { return s.SubmitAs("", spec) }

// SubmitAs is Submit on behalf of a named tenant ("" means "default"):
// the submission passes the tenant's quota and token-bucket admission
// before the global queue, so one tenant flooding the service gets 429s
// while the others' jobs still run.
func (s *Server) SubmitAs(tenant string, spec JobSpec) (*Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	if _, err := study.Lookup(spec.Experiment); err != nil {
		return nil, err
	}
	cfg, _, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	return s.lifecycle.submit(tenant, spec, cfg.Digest())
}

var (
	errQueueFull = fmt.Errorf("job queue full")
	errDraining  = fmt.Errorf("service is draining")
)

// Job returns a submitted job by ID.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// QueueDepth returns the number of jobs accepted but not yet running.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// Cancel requests cancellation of a job. A queued or backoff-waiting
// job settles as canceled at once, its queue and quota slots freed; a
// running job has its attempt's context canceled and settles at the
// campaign's next deterministic checkpoint. Terminal jobs are left as
// they are (reported via the returned already-terminal flag). Canceled
// jobs are never retried.
func (s *Server) Cancel(id string) (job *Job, terminal bool) {
	job, terminal, fx := s.lifecycle.cancel(id)
	s.apply(fx)
	return job, terminal
}

func terminalState(st string) bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// terminal reports whether the job reached done/failed/canceled.
func (j *Job) terminal() bool {
	return terminalState(j.state)
}

func (s *Server) worker(w int) {
	defer s.wg.Done()
	for {
		job, ctx := s.lifecycle.take(w)
		if job == nil {
			return
		}
		// Affinity accounting: a job executed by the worker its plane
		// digest hashes to will find (or leave) that plane hot in the
		// shared cache and keep the epoch cadence of a schedule landing
		// on one goroutine; a steal is a miss.
		if w == job.preferred {
			s.affinityHits.Add(1)
		} else {
			s.affinityMisses.Add(1)
		}
		s.apply(s.lifecycle.attemptEnded(w, job, s.runOnce(ctx, job)))
	}
}

func failure(class, format string, args ...any) attemptOutcome {
	return attemptOutcome{class: class, msg: fmt.Sprintf(format, args...)}
}

// runOnce executes one campaign attempt: resolve the world through the
// frozen-plane cache, attach the job's journal (resuming it on every
// attempt after the first, so retries continue instead of restarting),
// spool batches as they complete, render when done. Panics — the
// worker's own, a shard replica's (measure.ShardError) and cooperative
// cancellation aborts — are absorbed here
// and classified; the worker goroutine survives every failure mode. ctx
// is the attempt's context, which a DELETE or the job deadline ends.
func (s *Server) runOnce(ctx context.Context, job *Job) (out attemptOutcome) {
	ctx, cancel := context.WithCancel(ctx)
	attempt := job.attempts // the worker's own pop set it
	var jn *measure.Journal
	var spoolErr error // the sink's first spool write failure; it cancels the attempt
	defer func() {
		if r := recover(); r != nil {
			if err, ok := measure.CanceledFrom(r); ok {
				out = s.classifyCancel(err, r)
			} else if se, ok := r.(measure.ShardError); ok {
				out = failure(ClassShard, "%v (journal %s keeps completed batches)", se, job.journal)
			} else {
				out = failure(ClassPanic, "panic: %v", r)
			}
		}
		if spoolErr != nil {
			out = failure(ClassJournalIO, "stream spool: %v", spoolErr)
		}
		if jn != nil {
			s.journalBytes.Add(jn.Written())
			if jn.Degraded() != nil {
				s.markDegraded(job)
			}
		}
		cancel()
	}()

	if s.startHook != nil {
		s.startHook(job)
	}

	exp, err := study.Lookup(job.Spec.Experiment)
	if err != nil {
		return failure(ClassSpec, "%v", err)
	}
	cfg, opts, err := job.Spec.Resolve()
	if err != nil {
		return failure(ClassSpec, "%v", err)
	}
	topo, hit, err := s.cache.Get(cfg)
	if err != nil {
		return failure(ClassTopology, "topology build: %v", err)
	}
	s.mu.Lock()
	job.cacheHit = hit
	s.mu.Unlock()

	st, err := study.NewFromTopology(topo, opts)
	if err != nil {
		return failure(ClassSpec, "%v", err)
	}
	st.SetContext(ctx)
	resume := job.Spec.Resume || attempt > 1
	jn, err = st.AttachJournal(job.journal, resume)
	if err != nil {
		return failure(ClassJournalIO, "journal: %v", err)
	}
	jn.SetFsync(s.cfg.JournalFsync)
	defer st.CloseJournal()
	spool, err := os.OpenFile(job.spoolPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return failure(ClassJournalIO, "stream spool: %v", err)
	}
	defer spool.Close()

	// The experiment's checkpoint count when the registry knows it
	// exactly; 0 reports it unknown.
	total := 0
	if exp.Batches != nil {
		total = exp.Batches(st)
	}
	s.mu.Lock()
	// Every attempt appends at the committed length: whatever a killed
	// attempt wrote beyond it was never published, and is overwritten.
	off := job.spooled
	job.total = total
	job.done = jn.Archived()
	s.mu.Unlock()
	// The sink runs under the journal lock, one batch at a time, on the
	// journal's own buffer: write it out, then publish the new length, so
	// no reader is told of bytes the file lacks.
	jn.SetStreamSink(func(vp string, lines []byte) {
		if s.batchHook != nil {
			s.batchHook(job, vp, attempt)
		}
		if spoolErr != nil {
			return
		}
		if _, spoolErr = spool.WriteAt(lines, off); spoolErr != nil {
			cancel() // stop at the next checkpoint; the journal keeps what completes until then
			return
		}
		off += int64(len(lines))
		s.streamBytes.Add(int64(len(lines)))
		s.mu.Lock()
		job.done++
		job.spooled = off
		job.cond.Broadcast()
		s.mu.Unlock()
	})

	res, err := exp.Run(st, study.Params{})
	if err != nil {
		// Only the experiments that build worlds of their own fail
		// here, and only when a build does: deterministic, terminal.
		return failure(ClassTopology, "%v", err)
	}
	if err := ctx.Err(); err != nil {
		// The abort landed after the campaign's last checkpoint; honor
		// it anyway so a canceled job never reports success.
		return s.classifyCancel(err, err)
	}

	var render bytes.Buffer
	res.Render(&render)
	var reachable []netip.Addr
	if job.sched != nil {
		// The RR-reachable set is the epoch observation a schedule's
		// time-series index diffs (an epoch job is always table1).
		reachable = st.Table1().RRResponsive()
	}
	s.mu.Lock()
	job.render = render.Bytes()
	job.reachable = reachable
	s.mu.Unlock()
	return attemptOutcome{ok: true}
}

// classifyCancel splits a context-driven abort into its two classes: a
// deadline expiry (retryable — the next attempt resumes from the
// journal and makes fresh progress inside a fresh deadline) versus an
// explicit cancel (terminal).
func (s *Server) classifyCancel(ctxErr error, detail any) attemptOutcome {
	if errors.Is(ctxErr, context.DeadlineExceeded) {
		return failure(ClassDeadline, "attempt exceeded job deadline %v: %v", s.cfg.JobDeadline, detail)
	}
	return failure(ClassCanceled, "canceled: %v", detail)
}

// markDegraded records that the job's journal stopped recording
// checkpoints (a write/sync failure was swallowed so the campaign
// could keep running). Counted once per job.
func (s *Server) markDegraded(job *Job) {
	s.mu.Lock()
	first := !job.degraded
	job.degraded = true
	s.mu.Unlock()
	if first {
		s.degradedTotal.Add(1)
	}
}

// Handler returns the service's HTTP surface:
//
//	POST   /jobs                submit a JobSpec, 202 {"id": ...}; 503 full, 429 over tenant budget
//	GET    /jobs/{id}           status JSON
//	DELETE /jobs/{id}           cancel (202; 409 if already terminal)
//	GET    /jobs/{id}/stream    live JSONL result stream (follows until done)
//	GET    /jobs/{id}/render    the finished table (404 until done)
//	POST   /schedules           create a recurring campaign, 202 {"id": ...}
//	GET    /schedules           list schedule statuses
//	GET    /schedules/{id}      schedule status JSON
//	DELETE /schedules/{id}      cancel (202; 409 if already terminal)
//	GET    /schedules/{id}/diff epoch-over-epoch reachability churn table
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness (process is up)
//	GET    /readyz              readiness (accepting jobs; 503 while draining)
//
// Every submission endpoint honors the X-Tenant header ("default" when
// absent): a tenant over its quota or token budget gets 429 with
// Retry-After, while the shared-queue-full refusal stays 503.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /jobs/{id}/render", s.handleRender)
	mux.HandleFunc("POST /schedules", s.handleScheduleCreate)
	mux.HandleFunc("GET /schedules", s.handleScheduleList)
	mux.HandleFunc("GET /schedules/{id}", s.handleScheduleStatus)
	mux.HandleFunc("DELETE /schedules/{id}", s.handleScheduleCancel)
	mux.HandleFunc("GET /schedules/{id}/diff", s.handleScheduleDiff)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// writeSubmitErr maps a submission refusal onto its HTTP status: 429
// for a tenant over its own budget (with its Retry-After hint), 503
// for the shared service being full or draining, 400 for a bad spec.
// It reports whether err was non-nil (and therefore written).
func writeSubmitErr(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case asQuotaError(err) != nil:
		qe := asQuotaError(err)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(qe.retryAfter.Seconds()+0.999)))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case err == errQueueFull, err == errDraining:
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("bad job spec: %v", err), http.StatusBadRequest)
		return
	}
	job, err := s.SubmitAs(r.Header.Get("X-Tenant"), spec)
	if writeSubmitErr(w, err) {
		return
	}
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": job.ID})
}

func (s *Server) handleScheduleCreate(w http.ResponseWriter, r *http.Request) {
	var spec ScheduleSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("bad schedule spec: %v", err), http.StatusBadRequest)
		return
	}
	sc, err := s.CreateSchedule(r.Header.Get("X-Tenant"), spec)
	if writeSubmitErr(w, err) {
		return
	}
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": sc.ID})
}

func (s *Server) handleScheduleList(w http.ResponseWriter, _ *http.Request) {
	var out []ScheduleStatus
	for _, sc := range s.Schedules() {
		out = append(out, s.scheduleStatus(sc))
	}
	if out == nil {
		out = []ScheduleStatus{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleScheduleStatus(w http.ResponseWriter, r *http.Request) {
	sc := s.Schedule(r.PathValue("id"))
	if sc == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.scheduleStatus(sc))
}

func (s *Server) handleScheduleCancel(w http.ResponseWriter, r *http.Request) {
	sc, terminal := s.CancelSchedule(r.PathValue("id"))
	if sc == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if terminal {
		w.WriteHeader(http.StatusConflict)
	} else {
		w.WriteHeader(http.StatusAccepted)
	}
	json.NewEncoder(w).Encode(s.scheduleStatus(sc))
}

// handleScheduleDiff renders the schedule's epoch-over-epoch
// reachability churn table — the time-series view of what the network
// weather gained and lost between consecutive virtual epochs.
func (s *Server) handleScheduleDiff(w http.ResponseWriter, r *http.Request) {
	sc := s.Schedule(r.PathValue("id"))
	if sc == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	sc.Index.RenderTable(w)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(job.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, terminal := s.Cancel(r.PathValue("id"))
	if job == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if terminal {
		w.WriteHeader(http.StatusConflict)
	} else {
		w.WriteHeader(http.StatusAccepted)
	}
	json.NewEncoder(w).Encode(job.status())
}

// handleStream replays the job's JSONL results from the beginning and
// then follows live completions until the job reaches a terminal state
// (or the client goes away), flushing after every batch: it copies the
// spool's committed bytes through a descriptor of its own, so a live
// follower, a late reader and one whose job is evicted under it are one
// path, and none pins more than a descriptor. Each write carries a
// deadline: a reader that stops draining is disconnected after
// StreamWriteTimeout instead of holding the handler forever.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	writeTimeout := s.cfg.streamWriteTimeout()

	// Wake the cond loop when the client disconnects; under the lock, or
	// the wakeup could slip between the loop's check and its Wait.
	ctx := r.Context()
	defer context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		job.cond.Broadcast()
	})()

	var f *os.File
	buf := make([]byte, 128<<10)
	for next := int64(0); ; {
		s.mu.Lock()
		for next == job.spooled && !job.terminal() && ctx.Err() == nil {
			job.cond.Wait()
		}
		committed, end := job.spooled, job.terminal()
		s.mu.Unlock()
		if ctx.Err() != nil || (end && next == committed) {
			return
		}
		if f == nil {
			// Opened at the first byte to copy (a queued job has no spool
			// yet), when nothing has been sent if the job was just evicted.
			if f, _ = os.Open(job.spoolPath); f == nil {
				http.NotFound(w, r)
				return
			}
			defer f.Close()
		}
		for next < committed {
			n, err := f.ReadAt(buf[:min(int64(len(buf)), committed-next)], next)
			if writeTimeout > 0 {
				rc.SetWriteDeadline(time.Now().Add(writeTimeout))
			}
			if _, werr := w.Write(buf[:n]); werr != nil || err != nil {
				// Only the deadline is a drop; a client hanging up is not.
				if errors.Is(werr, os.ErrDeadlineExceeded) {
					s.streamDropped.Add(1)
				}
				return
			}
			next += int64(n)
		}
		rc.Flush()
	}
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	state, render, errMsg := job.state, job.render, job.err
	s.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(render)
	case StateFailed, StateCanceled:
		http.Error(w, errMsg, http.StatusInternalServerError)
	default:
		http.Error(w, fmt.Sprintf("job %s is %s", job.ID, state), http.StatusConflict)
	}
}

// handleMetrics exposes the service gauges the acceptance criteria
// name — queue depth, cache hits, per-job progress — plus worker-pool,
// build, collector and failure-handling counters (retries,
// cancellations, journal degradations), in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hits, misses, size := s.cache.Stats()
	// The collector, read at scrape time only.
	gc := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(gc)

	s.mu.Lock()
	states := make(map[string]float64)
	var progress, totals []obs.PromSample
	for _, id := range s.order {
		st := s.jobs[id].statusLocked()
		states[st.State]++
		progress = append(progress, obs.PromSample{
			Labels: map[string]string{"job": st.ID}, Value: float64(st.Done)})
		totals = append(totals, obs.PromSample{
			Labels: map[string]string{"job": st.ID}, Value: float64(st.Total)})
	}
	var tenantNames []string
	for name := range s.tenants {
		tenantNames = append(tenantNames, name)
	}
	sort.Strings(tenantNames)
	var tenantActive, tenantAdmitted, tenantRejected []obs.PromSample
	for _, name := range tenantNames {
		ts := s.tenants[name]
		lbl := map[string]string{"tenant": name}
		tenantActive = append(tenantActive, obs.PromSample{Labels: lbl, Value: float64(ts.active)})
		tenantAdmitted = append(tenantAdmitted, obs.PromSample{Labels: lbl, Value: float64(ts.admitted)})
		tenantRejected = append(tenantRejected, obs.PromSample{Labels: lbl, Value: float64(ts.rejected)})
	}
	schedStates := make(map[string]float64)
	for _, id := range s.schedIDs {
		schedStates[s.schedules[id].state]++
	}
	depth, retried, canceled := s.depth, s.retried, s.canceled
	s.mu.Unlock()

	var stateSamples []obs.PromSample
	for _, st := range []string{StateQueued, StateRunning, StateRetrying, StateDone, StateFailed, StateCanceled} {
		stateSamples = append(stateSamples, obs.PromSample{
			Labels: map[string]string{"state": st}, Value: states[st]})
	}
	var schedSamples []obs.PromSample
	for _, st := range []string{SchedActive, SchedDone, SchedFailed, SchedCanceled} {
		schedSamples = append(schedSamples, obs.PromSample{
			Labels: map[string]string{"state": st}, Value: schedStates[st]})
	}

	fams := []obs.PromFamily{
		{Name: "rrstudyd_queue_depth", Help: "jobs accepted but not yet running", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(depth)}}},
		{Name: "rrstudyd_workers", Help: "worker pool width", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(s.cfg.Workers)}}},
		{Name: "rrstudyd_jobs", Help: "jobs by state", Type: "gauge", Samples: stateSamples},
		{Name: "rrstudyd_jobs_retried_total", Help: "job attempts re-queued after a retryable failure", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(retried)}}},
		{Name: "rrstudyd_jobs_canceled_total", Help: "jobs finalized by DELETE /jobs/{id}", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(canceled)}}},
		{Name: "rrstudyd_journal_degraded_total", Help: "jobs whose journal degraded (checkpoint writes failing, job continued)", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(s.degradedTotal.Load())}}},
		{Name: "rrstudyd_stream_clients_dropped_total", Help: "/stream clients disconnected by the write deadline", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(s.streamDropped.Load())}}},
		{Name: "rrstudyd_stream_bytes_total", Help: "result-line bytes encoded into job streams", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(s.streamBytes.Load())}}},
		{Name: "rrstudyd_journal_bytes_total", Help: "bytes written to job journals by finished attempts", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(s.journalBytes.Load())}}},
		{Name: "rrstudyd_affinity_hits_total", Help: "jobs executed by their plane-affinity worker", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(s.affinityHits.Load())}}},
		{Name: "rrstudyd_affinity_misses_total", Help: "jobs executed via work stealing off their affinity worker", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(s.affinityMisses.Load())}}},
		{Name: "rrstudyd_schedules", Help: "recurring campaigns by state", Type: "gauge", Samples: schedSamples},
		{Name: "rrstudyd_tenant_active_jobs", Help: "in-flight jobs per tenant (queued, running or retrying)", Type: "gauge",
			Samples: tenantActive},
		{Name: "rrstudyd_tenant_admitted_total", Help: "submissions accepted per tenant", Type: "counter",
			Samples: tenantAdmitted},
		{Name: "rrstudyd_tenant_rejected_total", Help: "submissions refused per tenant by quota or token bucket (429s)", Type: "counter",
			Samples: tenantRejected},
		{Name: "rrstudyd_cache_hits_total", Help: "frozen-plane cache hits", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(hits)}}},
		{Name: "rrstudyd_cache_misses_total", Help: "frozen-plane cache misses", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(misses)}}},
		{Name: "rrstudyd_cache_planes", Help: "cached frozen planes", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(size)}}},
		{Name: "rrstudyd_topology_builds_total", Help: "process-wide topology builds", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(topology.Builds())}}},
		{Name: "rrstudyd_heap_live_bytes", Help: "heap bytes the last garbage collection found live", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(gc[0].Value.Uint64())}}},
		{Name: "rrstudyd_gc_cycles_total", Help: "completed garbage collections", Type: "counter",
			Samples: []obs.PromSample{{Value: float64(gc[1].Value.Uint64())}}},
		{Name: "rrstudyd_job_batches_done", Help: "completed VP batches per job (archived + fresh)", Type: "gauge",
			Samples: progress},
		{Name: "rrstudyd_job_batches_total", Help: "batch checkpoints the job's campaign completes", Type: "gauge",
			Samples: totals},
	}
	fams = append(fams, s.buildSeconds.Family(
		"rrstudyd_plane_build_seconds",
		"frozen-plane build duration per cache miss (build + snapshot)"))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteProm(w, fams)
}
