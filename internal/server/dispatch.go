package server

import (
	"hash/fnv"
	"sync"
)

// dispatcher is the worker-pool queue with frozen-plane cache affinity:
// each job hashes its topology digest to a preferred worker and is
// queued there, so repeat epochs of a recurring schedule land on the
// worker whose goroutine already executed — and whose pop order keeps
// executing — jobs of the same plane. Workers drain their own queue
// first and steal from the longest other queue when idle — but only
// from queues whose owner is mid-execution: an idle owner is about to
// take its own job, and stealing it would turn every quiet-pool pop
// into a coin flip between workers. A worker stops counting as
// mid-execution when its attempt ends (idle), before the job is settled:
// the next epoch a terminal hook chains onto the worker's own queue is
// that worker's to pop, not backlog. Affinity stays a placement
// preference, never a throughput ceiling: a saturated preferred
// worker's backlog is picked up by whoever is free.
//
// The total queued count across all per-worker queues is bounded by
// cap; push beyond it fails (the server's 503 backpressure). close
// wakes every worker; pop returns nil once closed and drained, which is
// the drain handshake the old channel close provided.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]*Job // FIFO per worker
	busy   []bool   // worker w is executing (its queue is steal-eligible)
	depth  int      // total queued across queues
	cap    int
	closed bool
}

func newDispatcher(workers, capacity int) *dispatcher {
	d := &dispatcher{queues: make([][]*Job, workers), busy: make([]bool, workers), cap: capacity}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// preferredWorker maps a topology digest to its affinity worker.
func (d *dispatcher) preferredWorker(digest string) int {
	h := fnv.New32a()
	h.Write([]byte(digest))
	return int(h.Sum32()) % len(d.queues)
}

// push enqueues job on its preferred worker's queue. It fails with
// errQueueFull at capacity and errDraining after close.
func (d *dispatcher) push(job *Job) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errDraining
	}
	if d.depth >= d.cap {
		return errQueueFull
	}
	w := job.preferred
	if w < 0 || w >= len(d.queues) {
		w = 0
	}
	d.queues[w] = append(d.queues[w], job)
	d.depth++
	d.cond.Broadcast()
	return nil
}

// idle marks worker w as no longer executing, ahead of the pop that
// follows: whatever lands on its queue from here on waits for w itself.
func (d *dispatcher) idle(w int) {
	d.mu.Lock()
	d.busy[w] = false
	d.mu.Unlock()
}

// pop returns the next job for worker w — its own queue first, then a
// steal from the longest other queue — blocking while everything is
// empty. nil means closed and fully drained: the worker exits.
func (d *dispatcher) pop(w int) (job *Job, stolen bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.busy[w] = false
	for {
		if len(d.queues[w]) > 0 {
			job, d.queues[w] = d.queues[w][0], d.queues[w][1:]
			d.depth--
			d.busy[w] = true
			if len(d.queues[w]) > 0 {
				// What is left behind became backlog this instant; peers
				// that passed it over while w was idle look again.
				d.cond.Broadcast()
			}
			return job, false
		}
		// Steal from the longest backlog whose owner is occupied, so the
		// most-oversubscribed plane's wait shrinks first. Queues of idle
		// owners are left alone: the push's broadcast woke them too, and
		// they will take their own job. A job can never strand behind an
		// exited worker — workers only exit (below) with an empty queue,
		// and a closed dispatcher refuses pushes.
		victim, longest := -1, 0
		for i, q := range d.queues {
			if !d.busy[i] {
				continue
			}
			if len(q) > longest {
				victim, longest = i, len(q)
			}
		}
		if victim >= 0 {
			job, d.queues[victim] = d.queues[victim][0], d.queues[victim][1:]
			d.depth--
			d.busy[w] = true
			return job, true
		}
		if d.closed {
			return nil, false
		}
		d.cond.Wait()
	}
}

// close stops the dispatcher: pending jobs still drain, new pushes are
// refused, and idle workers wake to exit.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}

// queued returns the total number of jobs accepted but not yet popped.
func (d *dispatcher) queued() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.depth
}
