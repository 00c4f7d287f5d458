package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"recordroute/internal/obs"
)

// TestLifecycleRandomInterleavings drives the lifecycle state machine the
// way TestProberRandomInterleavings drives the prober: a seeded scheduler
// calls its events directly — no goroutines, no sleeps — against a fake
// executor that picks every attempt's outcome, fake timers delivered in
// any order (a timer whose retry was canceled, drained or requeued since
// included: nothing stops timers), a fake data directory of spools and
// schedule checkpoints, and the pinned obs clock. Kill-and-restore throws
// the machine away and rebuilds one from the checkpoints. Every step is
// followed by the invariant check, and the run ends by driving the
// machine to quiescence, where every job it accepted must be terminal.
// A failure names its seed; FuzzLifecycle searches more of them.
func TestLifecycleRandomInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 1000; seed++ {
		runLifecycle(t, seed, 200)
	}
}

// FuzzLifecycle is the same driver over fuzzed seeds; testdata/fuzz
// keeps the seeds that found defects while the machine was built.
func FuzzLifecycle(f *testing.F) {
	f.Add(int64(0))
	f.Fuzz(func(t *testing.T, seed int64) { runLifecycle(t, seed, 400) })
}

var (
	simTenants = []string{"alpha", "beta", "gamma"}
	simPlanes  = []string{"plane-a", "plane-b", "plane-c", "plane-d"}
)

// simDigest is the fake plane digest of a spec: the sim keys planes by
// world seed, as the real digest does among others.
func simDigest(spec JobSpec) string { return simPlanes[spec.Seed%uint64(len(simPlanes))] }

// lifeSim is one seeded run: the machine and the world the sim fakes
// around it.
type lifeSim struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	cfg  Config
	m    *lifecycle
	now  time.Time

	held    []*Job            // worker w's attempt; nil while w is free
	timers  []timer           // armed, not yet delivered
	spools  map[string]bool   // *.stream files in the fake data directory
	disk    map[string][]byte // schedule checkpoints by ID
	ids     []string          // every job ID handed out, evicted ones included
	known   map[*Job]bool     // jobs this process life accepted
	settled map[*Job]Status   // a terminal job's state, class and error as first seen
	step    int
	op      string
}

func runLifecycle(t *testing.T, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := &lifeSim{t: t, seed: seed, rng: rng,
		cfg: Config{
			Workers:      1 + rng.Intn(3),
			QueueCap:     1 + rng.Intn(4),
			RetainJobs:   1 + rng.Intn(4),
			MaxRetries:   rng.Intn(4) - 1,
			RetryBackoff: time.Second,
			TenantQuota:  rng.Intn(4),
			JobDeadline:  time.Duration(rng.Intn(2)) * time.Hour,
			DataDir:      "/data",
		},
		now:     time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC),
		spools:  make(map[string]bool),
		disk:    make(map[string][]byte),
		settled: make(map[*Job]Status),
	}
	if rng.Intn(2) == 0 {
		s.cfg.TenantRate, s.cfg.TenantBurst = 1, float64(1+rng.Intn(2))
	}
	obs.SetNow(func() time.Time { return s.now })
	defer obs.SetNow(nil)
	s.boot()

	for s.step = 0; s.step < steps; s.step++ {
		switch r := rng.Intn(100); {
		case r < 16:
			s.submit()
		case r < 24:
			s.cancel()
		case r < 42:
			s.pop(rng.Intn(s.cfg.Workers))
		case r < 60:
			s.end(rng.Intn(s.cfg.Workers))
		case r < 72:
			s.fire()
		case r < 76:
			s.op = "tick"
			s.now = s.now.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
		case r < 78:
			s.drain()
		case r < 85:
			s.createSchedule()
		case r < 88:
			s.cancelSchedule()
		case r < 90:
			s.restart()
		default:
			s.pop(rng.Intn(s.cfg.Workers))
		}
		s.check()
	}
	s.quiesce()
}

func (s *lifeSim) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("seed %d, step %d (%s): %s", s.seed, s.step, s.op, fmt.Sprintf(format, args...))
}

// boot is New: an empty machine, the spools a dead process left swept,
// the checkpointed schedules restored in creation order.
func (s *lifeSim) boot() {
	s.m = newLifecycle(s.cfg)
	s.held = make([]*Job, s.cfg.Workers)
	s.timers = nil
	s.known = make(map[*Job]bool)
	clear(s.spools)
	var recs []schedRecord
	for _, data := range s.disk {
		var rec schedRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			s.fatalf("checkpoint: %v", err)
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		a, _ := schedNum(recs[i].ID)
		b, _ := schedNum(recs[j].ID)
		return a < b
	})
	for _, rec := range recs {
		s.apply(s.m.restore(rec, simDigest(rec.Spec.Job)))
	}
}

// apply is Server.apply against the fakes.
func (s *lifeSim) apply(fx effects) {
	for _, cancel := range fx.cancel {
		cancel()
	}
	s.timers = append(s.timers, fx.timers...)
	for _, path := range fx.unlink {
		delete(s.spools, path)
	}
	for _, sc := range fx.persist {
		data, err := json.Marshal(s.m.record(sc))
		if err != nil {
			s.fatalf("checkpoint %s: %v", sc.ID, err)
		}
		s.disk[sc.ID] = data
	}
}

func (s *lifeSim) submit() {
	s.op = "submit"
	spec := JobSpec{Experiment: "table1", Seed: uint64(s.rng.Intn(len(simPlanes)))}
	switch s.rng.Intn(8) {
	case 0, 1:
		spec.Journal = "/data/shared.jsonl"
	case 2: // an epoch's journal: the schedule's next epoch cannot fire
		spec.Journal = "/data/sched-1-e0.jsonl"
	}
	draining := s.m.draining
	_, err := s.m.submit(simTenants[s.rng.Intn(len(simTenants))], spec, simDigest(spec))
	if draining && err != errDraining {
		s.fatalf("submit while draining returned %v, want %v", err, errDraining)
	}
}

// cancel DELETEs a live, a terminal, an evicted or an unknown job.
func (s *lifeSim) cancel() {
	s.op = "cancel"
	id := "job-0"
	if len(s.ids) > 0 && s.rng.Intn(8) > 0 {
		id = s.ids[s.rng.Intn(len(s.ids))]
	}
	before := s.m.jobs[id]
	var was string
	if before != nil {
		was = before.state
	}
	job, terminal, fx := s.m.cancel(id)
	s.apply(fx)
	switch {
	case job != before:
		s.fatalf("cancel %s returned %v, the table holds %v", id, job, before)
	case job == nil:
	case terminal != terminalState(was):
		s.fatalf("cancel of a %s job reported terminal=%v", was, terminal)
	case was == StateQueued || was == StateRetrying:
		if job.state != StateCanceled {
			s.fatalf("canceled %s job %s is %s, want canceled at once", was, id, job.state)
		}
	case was == StateRunning:
		if job.state != StateRunning || !job.cancelRequested {
			s.fatalf("canceled running job %s is %s (cancel requested: %v)", id, job.state, job.cancelRequested)
		}
	}
}

// pop is free worker w asking for work; the attempt it starts creates
// the job's spool. A job from another worker's queue may only be one
// whose owner holds an attempt: a chained epoch, in particular, stays
// with its affinity worker whenever that worker is free.
func (s *lifeSim) pop(w int) {
	s.op = fmt.Sprintf("pop %d", w)
	if s.held[w] != nil {
		return
	}
	var head *Job
	if q := s.m.queues[w]; len(q) > 0 {
		head = q[0]
	}
	job, _ := s.m.pop(w)
	switch {
	case job == nil:
		if head != nil {
			s.fatalf("worker %d got nothing with %s at the head of its queue", w, head.ID)
		}
		return
	case head != nil && job != head:
		s.fatalf("worker %d got %s over the head of its own queue, %s", w, job.ID, head.ID)
	case job.preferred != w && s.held[job.preferred] == nil:
		s.fatalf("worker %d stole %s (epoch job: %v) from its free affinity worker %d", w, job.ID, job.sched != nil, job.preferred)
	}
	s.held[w] = job
	s.spools[job.spoolPath] = true
}

// end finishes worker w's attempt with an outcome the executor could
// produce: a DELETEd attempt usually stops at its next checkpoint as
// canceled, but may still succeed past its last one or die first.
func (s *lifeSim) end(w int) {
	s.op = fmt.Sprintf("end %d", w)
	job := s.held[w]
	if job == nil {
		return
	}
	s.held[w] = nil
	classes := []string{"", ClassSpec, ClassTopology, ClassJournalIO, ClassPanic, ClassShard, ClassDeadline}
	class := classes[s.rng.Intn(len(classes))]
	if job.cancelRequested && s.rng.Intn(2) == 0 {
		class = ClassCanceled
	}
	out := attemptOutcome{ok: class == "", class: class, msg: "attempt " + class}
	if class == ClassJournalIO {
		out.msg = "stream spool: write: no space left on device"
	}
	if out.ok && job.sched != nil {
		job.reachable = []netip.Addr{netip.AddrFrom4([4]byte{100, 0, 0, byte(s.rng.Intn(4))})}
	}
	retried, doomed := s.m.retried, job.cancelRequested && classRetryable(class)
	s.apply(s.m.attemptEnded(w, job, out))
	s.op += " " + job.ID + " " + class
	if doomed && (job.state != StateCanceled || s.m.retried != retried) {
		s.fatalf("a DELETEd attempt ending %s left %s %s (retries counted: %d)", class, job.ID, job.state, s.m.retried-retried)
	}
}

// fire delivers one armed timer, at random: live or stale.
func (s *lifeSim) fire() {
	s.op = "fire"
	if len(s.timers) == 0 {
		return
	}
	i := s.rng.Intn(len(s.timers))
	t := s.timers[i]
	s.timers = append(s.timers[:i], s.timers[i+1:]...)
	s.now = s.now.Add(t.delay)
	s.apply(s.m.fire(t))
}

func (s *lifeSim) drain() {
	s.op = "drain"
	s.apply(s.m.drain())
}

func (s *lifeSim) createSchedule() {
	s.op = "create schedule"
	spec := ScheduleSpec{Job: JobSpec{Experiment: "table1", Seed: uint64(s.rng.Intn(len(simPlanes)))}, Epochs: 1 + s.rng.Intn(3)}
	draining := s.m.draining
	_, fx, err := s.m.createSchedule(simTenants[s.rng.Intn(len(simTenants))], spec, simDigest(spec.Job))
	s.apply(fx)
	if draining && err != errDraining {
		s.fatalf("schedule create while draining returned %v, want %v", err, errDraining)
	}
}

func (s *lifeSim) cancelSchedule() {
	s.op = "cancel schedule"
	id := "sched-0"
	if n := len(s.m.schedIDs); n > 0 && s.rng.Intn(6) > 0 {
		id = s.m.schedIDs[s.rng.Intn(n)]
	}
	_, _, fx := s.m.cancelSchedule(id)
	s.apply(fx)
}

// restart is a SIGKILL and a new process over the same data directory.
func (s *lifeSim) restart() {
	s.op = "kill and restore"
	s.boot()
}

// check holds the machine to its invariants.
func (s *lifeSim) check() {
	s.t.Helper()
	m := s.m
	for _, id := range m.order {
		if job := m.jobs[id]; !s.known[job] {
			s.known[job] = true
			s.ids = append(s.ids, id)
		}
	}

	// No ghost IDs: the table, the order, the reservations and the queues
	// agree, and a queued job sits in exactly one queue, once.
	if len(m.order) != len(m.jobs) {
		s.fatalf("order lists %d jobs, the table holds %d", len(m.order), len(m.jobs))
	}
	inQueue := make(map[*Job]int)
	depth := 0
	for w, q := range m.queues {
		for _, job := range q {
			inQueue[job]++
			depth++
			if job.preferred != w || m.jobs[job.ID] != job || job.state != StateQueued {
				s.fatalf("queue %d holds %s job %s (preferred %d, in table: %v)", w, job.state, job.ID, job.preferred, m.jobs[job.ID] == job)
			}
		}
	}
	if depth != m.depth || depth > s.cfg.QueueCap {
		s.fatalf("queues hold %d jobs, depth says %d, cap %d", depth, m.depth, s.cfg.QueueCap)
	}
	for path, id := range m.journals {
		if job := m.jobs[id]; job == nil || job.terminal() || job.journal != path {
			s.fatalf("journal %s reserved for %s, which is not a live job writing it", path, id)
		}
	}
	active := make(map[string]int)
	epochJobs := make(map[*Schedule][]*Job)
	live, finished := 0, 0
	spoolOwners := make(map[string]bool)
	for _, id := range m.order {
		job := m.jobs[id]
		spoolOwners[job.spoolPath] = true
		if job.terminal() {
			finished++
			if _, ok := s.settled[job]; !ok {
				s.settled[job] = Status{State: job.state, Class: job.class, Error: job.err}
			}
			continue
		}
		live++
		active[job.tenant]++
		if m.journals[job.journal] != id {
			s.fatalf("live job %s does not hold its journal %s", id, job.journal)
		}
		if (job.state == StateQueued) != (inQueue[job] == 1) {
			s.fatalf("%s job %s is in %d queues", job.state, id, inQueue[job])
		}
		if job.sched != nil {
			epochJobs[job.sched] = append(epochJobs[job.sched], job)
		}
	}
	for w, job := range s.held {
		if job != nil && job.state != StateRunning {
			s.fatalf("worker %d holds %s, which is %s", w, job.ID, job.state)
		}
	}
	if finished > s.cfg.RetainJobs {
		s.fatalf("%d terminal jobs retained, RetainJobs is %d", finished, s.cfg.RetainJobs)
	}

	// A terminal state, class and error never change, evicted or not.
	for job, was := range s.settled {
		if job.state != was.State || job.class != was.Class || job.err != was.Error {
			s.fatalf("terminal %s changed from %s/%s %q to %s/%s %q", job.ID, was.State, was.Class, was.Error, job.state, job.class, job.err)
		}
	}

	// A tenant's in-flight count is its live jobs; its bucket stays in
	// [0, burst].
	for name, ts := range m.tenants {
		if ts.active != active[name] {
			s.fatalf("tenant %s counts %d in flight, has %d live jobs", name, ts.active, active[name])
		}
		if ts.tokens < 0 || ts.tokens > s.cfg.tenantBurst() {
			s.fatalf("tenant %s holds %v tokens, burst %v", name, ts.tokens, s.cfg.tenantBurst())
		}
	}

	// A schedule runs one epoch at a time, and currentJob names it.
	for _, id := range m.schedIDs {
		sc := m.schedules[id]
		jobs := epochJobs[sc]
		switch {
		case len(jobs) > 1:
			s.fatalf("schedule %s has %d live epoch jobs", id, len(jobs))
		case len(jobs) == 1 && sc.currentJob != jobs[0].ID:
			s.fatalf("schedule %s runs %s but names %q", id, jobs[0].ID, sc.currentJob)
		case len(jobs) == 0 && sc.currentJob != "":
			s.fatalf("schedule %s names %s, which is not live", id, sc.currentJob)
		}
	}

	// No spool outlives its job's eviction, or a drain with nothing live.
	for path := range s.spools {
		if !spoolOwners[path] {
			s.fatalf("spool %s outlived its job", path)
		}
	}
	if s.op == "drain" && live == 0 && len(s.spools) > 0 {
		s.fatalf("%d spools left after a drain with nothing live", len(s.spools))
	}
}

// quiesce runs workers and timers until nothing is left to do; then every
// job this life accepted must be terminal, and a drain leaves no spool.
func (s *lifeSim) quiesce() {
	for round := 0; ; round++ {
		if round > 10000 {
			s.fatalf("no quiescence after %d rounds", round)
		}
		busy := false
		for w := range s.held {
			if s.held[w] != nil {
				s.end(w)
				busy = true
				s.check()
			}
		}
		for w := range s.held {
			s.pop(w)
			if s.held[w] != nil {
				busy = true
			}
			s.check()
		}
		if len(s.timers) > 0 {
			s.fire()
			busy = true
			s.check()
		}
		if !busy {
			break
		}
	}
	s.op = "quiescence"
	for job := range s.known {
		if !job.terminal() {
			s.fatalf("accepted job %s is %s at quiescence", job.ID, job.state)
		}
	}
	s.drain()
	s.check()
}
