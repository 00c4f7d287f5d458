package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// tracer records a span around every call the harness makes into a
// layer. Spans are taken from the benchmark's own files only — the
// program under test is not instrumented — stay in memory while the
// workload runs, and are written out when it ends. A nil tracer records
// nothing, which is how the untraced ops of a run go.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one line of <workload>.trace.jsonl. Times are nanoseconds
// since the tracer started; Self is the span's duration minus the part
// its child spans cover.
type spanRec struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 for an op's root span
	Op     int              `json:"op"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Self   int64            `json:"self_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// span is a handle on an open span; the zero span is disabled.
type span struct {
	t  *tracer
	id int
	op int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens the root span of op.
func (t *tracer) root(op int, name string) span {
	if t == nil {
		return span{}
	}
	return t.open(0, op, name)
}

func (t *tracer) open(parent, op int, name string) span {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return span{t: t, id: id, op: op}
}

// child opens a span caused by s. Names are "<layer>.<call>".
func (s span) child(name string) span {
	if s.t == nil {
		return span{}
	}
	return s.t.open(s.id, s.op, name)
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	rec := &s.t.spans[s.id-1]
	rec.End = now
	return time.Duration(rec.End - rec.Start)
}

// count attaches a count taken at the span's boundary.
func (s span) count(name string, v int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	rec := &s.t.spans[s.id-1]
	if rec.Counts == nil {
		rec.Counts = make(map[string]int64)
	}
	rec.Counts[name] = v
}

// finish computes every span's self time and returns the records.
func (t *tracer) finish() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].End < t.spans[i].Start {
			t.spans[i].End = t.spans[i].Start // an op that failed before its clock stopped
		}
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
	return t.spans
}

// layerOf names the module a span belongs to: the part of its name
// before the first dot. Root spans belong to the harness.
func layerOf(s spanRec) string {
	if s.Parent == 0 {
		return "harness"
	}
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// selfByLayer sums self time per layer, as a share of all root spans'
// wall time.
func selfByLayer(spans []spanRec) map[string]float64 {
	var wall int64
	self := make(map[string]int64)
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.End - s.Start
		}
		self[layerOf(s)] += s.Self
	}
	out := make(map[string]float64, len(self))
	for layer, ns := range self {
		out[layer] = float64(ns) / float64(wall)
	}
	return out
}

func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
