package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"recordroute/internal/obs"
	"recordroute/internal/results"
)

// lifecycle is the job and schedule state machine (DESIGN.md §11, "The
// lifecycle"): one mutex and one method per event, and the only code that
// writes a job's state, class and error, a tenant's in-flight count and
// tokens, the journal reservations, the per-worker queues and busy bits,
// a schedule's state and epoch cursor, and — through the unlinks it hands
// back — spool lifetime. Each event applies the transition table under mu
// and returns the side effects for its caller to run once mu is released
// (Server.apply, at the end of this file). No event but take blocks, and
// none sleeps or does I/O, so a test can drive the machine step by step
// (lifecycle_test.go).
type lifecycle struct {
	cfg Config

	mu sync.Mutex
	// work wakes workers parked in take. Every Job.cond is on mu too, so
	// waking a job's waiters is a Broadcast in place.
	work *sync.Cond

	jobs      map[string]*Job
	order     []string          // submission order of retained jobs
	journals  map[string]string // reserved journal path -> job ID
	tenants   map[string]*tenantState
	schedules map[string]*Schedule
	schedIDs  []string // creation order
	nextID    int
	nextSched int
	draining  bool

	// The dispatcher: a FIFO per worker, each job queued on the worker its
	// plane digest hashes to (preferredWorker). busy[w] says worker w holds
	// an attempt; only a busy worker's queue may be stolen from.
	queues [][]*Job
	busy   []bool
	depth  int // jobs queued across all queues

	retried  int64 // attempts re-queued after a retryable failure
	canceled int64 // jobs settled as canceled
}

// effects is what a transition leaves its caller to do after unlocking:
// cancel attempt contexts, arm timers that call fire, unlink spools,
// checkpoint schedule records.
type effects struct {
	cancel  []context.CancelFunc
	timers  []timer
	unlink  []string
	persist []*Schedule
}

// timer asks for fire(t) after delay: a retrying job's backoff (job set)
// or a refused epoch's refire (sched set). A job's timer carries the
// generation it was armed for, and the job's generation moves on whenever
// it leaves that retry — requeued, canceled, drained — so a late fire is
// a no-op and no timer ever needs stopping.
type timer struct {
	job   *Job
	sched *Schedule
	gen   uint64
	delay time.Duration
}

// attemptOutcome is what one execution attempt came to.
type attemptOutcome struct {
	ok    bool
	class string
	msg   string
}

func newLifecycle(cfg Config) *lifecycle {
	m := &lifecycle{cfg: cfg,
		jobs:      make(map[string]*Job),
		journals:  make(map[string]string),
		tenants:   make(map[string]*tenantState),
		schedules: make(map[string]*Schedule),
		queues:    make([][]*Job, cfg.Workers),
		busy:      make([]bool, cfg.Workers),
	}
	m.work = sync.NewCond(&m.mu)
	return m
}

// preferredWorker maps a topology digest to its affinity worker.
func (m *lifecycle) preferredWorker(digest string) int {
	h := fnv.New32a()
	h.Write([]byte(digest))
	return int(h.Sum32()) % len(m.queues)
}

// submit admits a metered job for tenant and queues it on its plane's
// worker.
func (m *lifecycle) submit(tenant string, spec JobSpec, digest string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.enqueue(tenant, spec, digest, true)
}

// enqueue is admission. Refusals, in order: draining, a journal another
// live job reserved, the tenant's quota or bucket (429), a full queue (503,
// the token refunded). Schedule epochs (metered=false) hold a quota slot
// but pay no token: the schedule paid at creation.
func (m *lifecycle) enqueue(tenant string, spec JobSpec, digest string, metered bool) (*Job, error) {
	if m.draining {
		return nil, errDraining
	}
	id := fmt.Sprintf("job-%d", m.nextID+1)
	path := spec.Journal
	if path == "" {
		path = filepath.Join(m.cfg.DataDir, id+".jsonl")
	}
	if owner, busy := m.journals[path]; busy {
		return nil, fmt.Errorf("journal %s is in use by %s", path, owner)
	}
	ts := m.tenant(tenant)
	if err := m.admit(ts, metered); err != nil {
		return nil, err
	}
	if m.depth >= m.cfg.QueueCap {
		m.refund(ts, metered)
		return nil, errQueueFull
	}
	m.nextID++
	job := &Job{ID: id, Spec: spec, journal: path, tenant: tenant,
		digest: digest, preferred: m.preferredWorker(digest),
		spoolPath: filepath.Join(m.cfg.DataDir, id+".stream"), state: StateQueued}
	job.cond = sync.NewCond(&m.mu)
	ts.active++
	m.jobs[id] = job
	m.order = append(m.order, id)
	m.journals[path] = id
	m.push(job)
	return job, nil
}

func (m *lifecycle) push(job *Job) {
	m.queues[job.preferred] = append(m.queues[job.preferred], job)
	m.depth++
	m.work.Broadcast()
}

// cancel is DELETE /jobs/{id}; terminal reports a job that had already
// settled, which is left as it is.
func (m *lifecycle) cancel(id string) (job *Job, terminal bool, fx effects) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job = m.jobs[id]
	switch {
	case job == nil:
	case job.terminal():
		terminal = true
	default:
		m.cancelJob(job, &fx)
	}
	return job, terminal, fx
}

// cancelJob settles a queued job (out of its queue) or a retrying one at
// once, freeing its slots; a running job has its attempt's context
// canceled and settles when the attempt ends, never by a retry.
func (m *lifecycle) cancelJob(job *Job, fx *effects) {
	switch job.state {
	case StateQueued:
		q := m.queues[job.preferred]
		i := slices.Index(q, job)
		m.queues[job.preferred] = slices.Delete(q, i, i+1)
		m.depth--
		m.settle(job, StateCanceled, ClassCanceled, "canceled while queued", fx)
	case StateRetrying:
		m.settle(job, StateCanceled, ClassCanceled, "canceled while waiting for retry", fx)
	case StateRunning:
		job.cancelRequested = true
		fx.cancel = append(fx.cancel, job.cancelRun)
	}
}

// pop is worker w asking for work, without waiting: the head of its own
// queue, else the head of the longest queue whose owner is busy — an idle
// owner is about to take its own job, and stealing it would make every
// quiet-pool pop a coin flip between workers. The job starts an attempt
// under a fresh context (bounded by JobDeadline) that cancel can reach.
func (m *lifecycle) pop(w int) (*Job, context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.popLocked(w)
}

func (m *lifecycle) popLocked(w int) (*Job, context.Context) {
	q := w
	if len(m.queues[w]) == 0 {
		longest := 0
		q = -1
		for i, jobs := range m.queues {
			if m.busy[i] && len(jobs) > longest {
				q, longest = i, len(jobs)
			}
		}
		if q < 0 {
			return nil, nil
		}
	}
	job := m.queues[q][0]
	m.queues[q] = m.queues[q][1:]
	m.depth--
	m.busy[w] = true
	if q == w && len(m.queues[w]) > 0 {
		m.work.Broadcast() // what w left behind is backlog now that w is busy
	}
	var ctx context.Context
	if m.cfg.JobDeadline > 0 {
		ctx, job.cancelRun = context.WithTimeout(context.Background(), m.cfg.JobDeadline)
	} else {
		ctx, job.cancelRun = context.WithCancel(context.Background())
	}
	job.state = StateRunning
	job.attempts++
	job.cond.Broadcast()
	return job, ctx
}

// take is a worker goroutine's pop: it waits while there is nothing to
// pop, and returns nil once the service drains and nothing is left for w
// — nothing is queued after draining, and a job in an idle peer's queue
// is that peer's to run.
func (m *lifecycle) take(w int) (*Job, context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if job, ctx := m.popLocked(w); job != nil || m.draining {
			return job, ctx
		}
		m.work.Wait()
	}
}

// attemptEnded settles what worker w's attempt of job came to. w goes
// idle first: an epoch that settling chains onto w's queue is w's to pop,
// not backlog for a peer. A pending DELETE wins over a retry.
func (m *lifecycle) attemptEnded(w int, job *Job, out attemptOutcome) (fx effects) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.busy[w] = false
	fx.cancel = append(fx.cancel, job.cancelRun) // releases the attempt's context
	job.cancelRun = nil
	retryable := classRetryable(out.class)
	switch {
	case out.ok:
		m.settle(job, StateDone, "", "", &fx)
	case out.class == ClassCanceled:
		m.settle(job, StateCanceled, ClassCanceled, out.msg, &fx)
	case retryable && job.cancelRequested:
		m.settle(job, StateCanceled, ClassCanceled, "canceled: "+out.msg, &fx)
	case !retryable || job.attempts > m.cfg.maxRetries():
		m.settle(job, StateFailed, out.class, out.msg, &fx)
	case m.draining:
		m.abandon(job, out.class, out.msg, &fx)
	default:
		delay := m.cfg.backoffFor(job.attempts) // retry N follows attempt N
		job.state, job.class = StateRetrying, out.class
		job.err = fmt.Sprintf("%s (attempt %d/%d; retrying in %v)", out.msg, job.attempts, m.cfg.maxRetries()+1, delay)
		job.gen++
		fx.timers = append(fx.timers, timer{job: job, gen: job.gen, delay: delay})
		m.retried++
		job.cond.Broadcast()
	}
	return fx
}

// fire delivers a timer. A job's requeues the job if it is still in the
// retry the timer was armed for — or, the queue being full, arms one more
// backoff round; a schedule's refires its cursor epoch if still due.
func (m *lifecycle) fire(t timer) (fx effects) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch job := t.job; {
	case t.sched != nil:
		m.fireEpoch(t.sched, &fx)
	case t.gen != job.gen:
	case m.depth >= m.cfg.QueueCap:
		job.gen++
		fx.timers = append(fx.timers, timer{job: job, gen: job.gen, delay: m.cfg.retryBackoff()})
	default:
		job.gen++
		job.state = StateQueued
		m.push(job)
		job.cond.Broadcast()
	}
	return fx
}

// drain stops admission: queued and running jobs go on to finish, a job
// waiting out a backoff gets no next attempt. Once no job is live, drain
// (called again by Drain after the workers exit) unlinks every retained
// spool: they go with the service.
func (m *lifecycle) drain() (fx effects) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.draining = true
	var waiting []*Job
	for _, id := range m.order {
		if job := m.jobs[id]; job.state == StateRetrying {
			waiting = append(waiting, job)
		}
	}
	for _, job := range waiting {
		m.abandon(job, job.class, job.err, &fx)
	}
	m.work.Broadcast()
	for _, id := range m.order {
		if !m.jobs[id].terminal() {
			return fx
		}
	}
	for _, id := range m.order {
		fx.unlink = append(fx.unlink, m.jobs[id].spoolPath)
	}
	return fx
}

// abandon fails a job that would retry while the service drains, keeping
// the failure it would have retried.
func (m *lifecycle) abandon(job *Job, class, msg string, fx *effects) {
	m.settle(job, StateFailed, class, msg+" (retry abandoned: service draining; journal keeps completed batches)", fx)
}

// settle is the one way into a terminal state: the journal reservation
// and the tenant's quota slot are released, waiters woken, an epoch job's
// schedule told, and the oldest terminal jobs beyond RetainJobs evicted
// with their spools — a reader mid-copy keeps its descriptor, but the job
// is no longer addressable.
func (m *lifecycle) settle(job *Job, state, class, msg string, fx *effects) {
	job.state, job.class, job.err = state, class, msg
	job.gen++
	delete(m.journals, job.journal)
	m.tenants[job.tenant].active--
	if state == StateCanceled {
		m.canceled++
	}
	job.cond.Broadcast()
	if job.sched != nil {
		m.epochTerminal(job, fx)
	}
	excess := -m.cfg.RetainJobs
	for _, id := range m.order {
		if m.jobs[id].terminal() {
			excess++
		}
	}
	m.order = slices.DeleteFunc(m.order, func(id string) bool {
		old := m.jobs[id]
		if excess <= 0 || !old.terminal() {
			return false
		}
		excess--
		delete(m.jobs, id)
		fx.unlink = append(fx.unlink, old.spoolPath)
		return true
	})
}

// createSchedule registers a recurring campaign, which pays one token,
// and fires its first epoch.
func (m *lifecycle) createSchedule(tenant string, spec ScheduleSpec, digest string) (*Schedule, effects, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var fx effects
	if m.draining {
		return nil, fx, errDraining
	}
	if err := m.admit(m.tenant(tenant), true); err != nil {
		return nil, fx, err
	}
	m.nextSched++
	sc := &Schedule{ID: fmt.Sprintf("sched-%d", m.nextSched), Tenant: tenant, Spec: spec,
		digest: digest, state: SchedActive, Index: &results.EpochIndex{}}
	m.schedules[sc.ID] = sc
	m.schedIDs = append(m.schedIDs, sc.ID)
	fx.persist = append(fx.persist, sc)
	m.fireEpoch(sc, &fx)
	return sc, fx, nil
}

// restore re-registers a schedule checkpointed by an earlier process life
// and fires its cursor epoch if it is still active; the epoch's journal
// resumes. Its tenant holds no token for it: it paid at creation.
func (m *lifecycle) restore(rec schedRecord, digest string) (fx effects) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec.Index == nil {
		rec.Index = &results.EpochIndex{}
	}
	sc := &Schedule{ID: rec.ID, Tenant: rec.Tenant, Spec: rec.Spec, digest: digest,
		state: rec.State, nextEpoch: rec.NextEpoch, errMsg: rec.Error, Index: rec.Index}
	n, _ := schedNum(rec.ID)
	m.nextSched = max(m.nextSched, n)
	m.tenant(sc.Tenant)
	m.schedules[sc.ID] = sc
	m.schedIDs = append(m.schedIDs, sc.ID)
	m.fireEpoch(sc, &fx)
	return fx
}

// cancelSchedule stops a schedule: no further epoch fires, and the live
// epoch job, if any, is canceled. terminal reports a schedule that had
// already ended, which is left as it is.
func (m *lifecycle) cancelSchedule(id string) (sc *Schedule, terminal bool, fx effects) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sc = m.schedules[id]
	if sc == nil || sc.state != SchedActive {
		return sc, sc != nil, fx
	}
	sc.state = SchedCanceled
	fx.persist = append(fx.persist, sc)
	if job := m.jobs[sc.currentJob]; job != nil {
		m.cancelJob(job, &fx)
	}
	return sc, false, fx
}

// fireEpoch queues the schedule's cursor epoch, if it is due: the schedule
// is active and has no live epoch job. Refusals that mean "later" (full
// queue, tenant quota) arm a refire; draining leaves the cursor to the
// next start; anything else fails the schedule.
func (m *lifecycle) fireEpoch(sc *Schedule, fx *effects) {
	if sc.state != SchedActive || sc.currentJob != "" {
		return
	}
	e := sc.nextEpoch
	job, err := m.enqueue(sc.Tenant, sc.epochSpec(m.cfg.DataDir, e), sc.digest, false)
	switch {
	case err == nil:
		job.sched, job.epoch = sc, e
		sc.currentJob = job.ID
	case err == errDraining:
	case err == errQueueFull || asQuotaError(err) != nil:
		fx.timers = append(fx.timers, timer{sched: sc, delay: m.cfg.retryBackoff()})
	default:
		sc.state, sc.errMsg = SchedFailed, fmt.Sprintf("epoch %d submit: %v", e, err)
		fx.persist = append(fx.persist, sc)
	}
}

// epochTerminal is an epoch job settling: a done epoch joins the index and
// advances the cursor, a failed or canceled one ends the schedule with its
// fate. The schedule checkpoints and, still active, fires its next epoch —
// onto the worker that just went idle, the plane being the same.
func (m *lifecycle) epochTerminal(job *Job, fx *effects) {
	sc := job.sched
	sc.currentJob = ""
	switch {
	case sc.state != SchedActive: // canceled while the epoch ran
	case job.state == StateDone:
		sc.Index.Add(job.epoch, job.reachable)
		sc.nextEpoch = job.epoch + 1
		if sc.nextEpoch >= sc.Spec.Epochs {
			sc.state = SchedDone
		}
	case job.state == StateCanceled:
		sc.state, sc.errMsg = SchedCanceled, fmt.Sprintf("epoch %d canceled: %s", job.epoch, job.err)
	default:
		sc.state, sc.errMsg = SchedFailed, fmt.Sprintf("epoch %d failed: %s", job.epoch, job.err)
	}
	fx.persist = append(fx.persist, sc)
	m.fireEpoch(sc, fx)
}

// record snapshots a schedule's checkpoint.
func (m *lifecycle) record(sc *Schedule) schedRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return schedRecord{ID: sc.ID, Tenant: sc.Tenant, Spec: sc.Spec,
		State: sc.state, NextEpoch: sc.nextEpoch, Error: sc.errMsg, Index: sc.Index}
}

// tenant returns (creating on first use) the named tenant's state.
func (m *lifecycle) tenant(name string) *tenantState {
	ts := m.tenants[name]
	if ts == nil {
		ts = &tenantState{name: name, tokens: m.cfg.tenantBurst(), last: obs.Now()}
		m.tenants[name] = ts
	}
	return ts
}

// admit charges one submission against the tenant's gates: the
// max-in-flight quota always, the token bucket only when metered. A
// refusal is counted and carries its Retry-After hint.
func (m *lifecycle) admit(ts *tenantState, metered bool) error {
	cfg := m.cfg
	if cfg.TenantQuota > 0 && ts.active >= cfg.TenantQuota {
		ts.rejected++
		return &quotaError{tenant: ts.name, reason: fmt.Sprintf("max-concurrent-jobs quota (%d in flight)", ts.active), retryAfter: time.Second}
	}
	if metered && cfg.TenantRate > 0 {
		now := obs.Now()
		ts.tokens = min(cfg.tenantBurst(), ts.tokens+now.Sub(ts.last).Seconds()*cfg.TenantRate)
		ts.last = now
		if ts.tokens < 1 {
			ts.rejected++
			wait := time.Duration((1 - ts.tokens) / cfg.TenantRate * float64(time.Second))
			return &quotaError{tenant: ts.name, reason: "submission rate", retryAfter: max(wait, time.Second)}
		}
		ts.tokens--
	}
	ts.admitted++
	return nil
}

// refund returns what admit charged when the global queue then refused
// the submission: the tenant does not pay for the service's congestion.
func (m *lifecycle) refund(ts *tenantState, metered bool) {
	ts.admitted--
	if metered && m.cfg.TenantRate > 0 {
		ts.tokens = min(m.cfg.tenantBurst(), ts.tokens+1)
	}
}

// apply runs a transition's side effects, outside the lifecycle's lock.
func (s *Server) apply(fx effects) {
	for _, cancel := range fx.cancel {
		cancel()
	}
	for _, t := range fx.timers {
		time.AfterFunc(t.delay, func() { s.apply(s.lifecycle.fire(t)) })
	}
	for _, path := range fx.unlink {
		os.Remove(path) // outside the lock: unlinking a large spool takes a while
	}
	for _, sc := range fx.persist {
		s.persist(sc)
	}
}

// sweepSpools removes the spools in dir at startup. No job survives a
// restart, so a spool a SIGKILL left is an orphan; journals and schedule
// checkpoints, which a restart resumes from, stay.
func sweepSpools(dir string) {
	orphans, _ := filepath.Glob(filepath.Join(dir, "*.stream"))
	for _, p := range orphans {
		os.Remove(p)
	}
}
