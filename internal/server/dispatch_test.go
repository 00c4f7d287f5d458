package server

import (
	"fmt"
	"testing"
)

// digestFor returns a plane digest whose affinity worker is w.
func digestFor(t *testing.T, m *lifecycle, w int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if d := fmt.Sprintf("plane-%d", i); m.preferredWorker(d) == w {
			return d
		}
	}
	t.Fatalf("no digest hashes to worker %d", w)
	return ""
}

// mustPop pops worker w and requires want (nil: nothing to pop).
func mustPop(t *testing.T, m *lifecycle, w int, want *Job) {
	t.Helper()
	job, _ := m.pop(w)
	if job != want {
		t.Fatalf("worker %d popped %v, want %v", w, job, want)
	}
}

// TestDispatchChainedJobStaysWithOwner scripts a schedule's epoch
// cadence: worker 0 ends epoch 0's attempt, and settling it chains
// epoch 1 onto worker 0's own queue. The owner is idle from the moment
// its attempt ended, so a peer popping before the owner gets back to pop
// must leave the epoch alone.
func TestDispatchChainedJobStaysWithOwner(t *testing.T) {
	m := newLifecycle(Config{Workers: 2, QueueCap: 8, RetainJobs: 8})
	sc, _, err := m.createSchedule("default", ScheduleSpec{Job: smokeSpec(), Epochs: 2}, digestFor(t, m, 0))
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := m.jobs[sc.currentJob]
	mustPop(t, m, 1, nil) // an idle owner's queue is not backlog
	mustPop(t, m, 0, epoch0)

	m.attemptEnded(0, epoch0, attemptOutcome{ok: true})
	epoch1 := m.jobs[sc.currentJob]
	if epoch1 == nil || epoch1.epoch != 1 {
		t.Fatalf("settling epoch 0 chained %v, want epoch 1", epoch1)
	}
	mustPop(t, m, 1, nil)
	mustPop(t, m, 0, epoch1)
}

// TestDispatchStealsBusyOwnersBacklog is the other half of the steal
// rule: a job queued behind an owner that is executing a different job
// is backlog, and an idle peer takes it.
func TestDispatchStealsBusyOwnersBacklog(t *testing.T) {
	m := newLifecycle(Config{Workers: 2, QueueCap: 8, RetainJobs: 8})
	plane := digestFor(t, m, 0)
	submit := func() *Job {
		t.Helper()
		job, err := m.submit("default", smokeSpec(), plane)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	running := submit()
	mustPop(t, m, 0, running)
	backlog := submit() // the owner is busy: backlog
	mustPop(t, m, 1, backlog)
	m.attemptEnded(1, backlog, attemptOutcome{ok: true})

	// Two jobs land while the owner is between attempts: it takes the
	// first, and the second turns into backlog for the peer that had
	// passed both over.
	m.attemptEnded(0, running, attemptOutcome{ok: true})
	first, second := submit(), submit()
	mustPop(t, m, 1, nil)
	mustPop(t, m, 0, first)
	mustPop(t, m, 1, second)
	if m.depth != 0 {
		t.Errorf("depth %d after every job was popped", m.depth)
	}
}
