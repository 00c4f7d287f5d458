package server

import (
	"testing"
	"time"
)

// popAsync runs pop(w) on its own goroutine and delivers what it got.
func popAsync(d *dispatcher, w int) <-chan *Job {
	got := make(chan *Job, 1)
	go func() {
		job, _ := d.pop(w)
		got <- job
	}()
	return got
}

// TestDispatchChainedJobStaysWithOwner scripts a schedule's epoch
// cadence: worker 0 finishes an attempt, goes idle, and its terminal
// hook pushes the next epoch onto its own queue while worker 1 waits in
// pop with nothing to do. The push wakes worker 1, which must leave the
// job for its owner however long the owner takes to get back to pop.
func TestDispatchChainedJobStaysWithOwner(t *testing.T) {
	d := newDispatcher(2, 8)
	epoch0, epoch1 := &Job{ID: "epoch-0"}, &Job{ID: "epoch-1"}
	if err := d.push(epoch0); err != nil {
		t.Fatal(err)
	}
	if job, stolen := d.pop(0); job != epoch0 || stolen {
		t.Fatalf("owner popped %v (stolen=%v), want epoch-0 from its own queue", job, stolen)
	}
	peer := popAsync(d, 1)

	// The attempt ends, and the terminal hook chains the next epoch.
	d.idle(0)
	if err := d.push(epoch1); err != nil {
		t.Fatal(err)
	}
	select {
	case job := <-peer:
		t.Fatalf("idle peer stole %s from a worker that was on its way back to pop", job.ID)
	case <-time.After(50 * time.Millisecond):
	}
	if job, stolen := d.pop(0); job != epoch1 || stolen {
		t.Fatalf("owner popped %v (stolen=%v), want epoch-1 from its own queue", job, stolen)
	}

	d.close()
	if job := <-peer; job != nil {
		t.Fatalf("peer got %s from a drained dispatcher", job.ID)
	}
}

// TestDispatchStealsBusyOwnersBacklog is the other half of the steal
// rule: a job queued behind an owner that is executing a different job
// is backlog, and an idle peer takes it.
func TestDispatchStealsBusyOwnersBacklog(t *testing.T) {
	d := newDispatcher(2, 8)
	running, backlog := &Job{ID: "running"}, &Job{ID: "backlog"}
	d.push(running)
	if job, _ := d.pop(0); job != running {
		t.Fatalf("owner popped %v, want its own job", job)
	}
	peer := popAsync(d, 1)
	d.push(backlog) // owner still executing: no idle
	expectSteal(t, peer, backlog)

	// Two jobs land while the owner is between attempts: it takes the
	// first, and the second turns into backlog for the peer that had
	// passed both over.
	first, second := &Job{ID: "first"}, &Job{ID: "second"}
	d.idle(0)
	peer = popAsync(d, 1)
	d.push(first)
	d.push(second)
	if job, _ := d.pop(0); job != first {
		t.Fatalf("owner popped %v, want the head of its own queue", job)
	}
	expectSteal(t, peer, second)
	d.close()
}

func expectSteal(t *testing.T, peer <-chan *Job, want *Job) {
	t.Helper()
	select {
	case job := <-peer:
		if job != want {
			t.Fatalf("peer got %v, want %s", job, want.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("idle peer never stole %s from a busy owner", want.ID)
	}
}
