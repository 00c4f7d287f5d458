// Package obs is the campaign observability layer: structured metrics
// snapshots of the simulator's counter registry and a ring-buffered,
// virtual-clock-stamped trace of probe lifecycles. Both facilities are
// strictly passive — they read state and record events synchronously
// from within the event being observed, never scheduling work or
// touching the virtual clock — so an observed run is byte-identical to
// an unobserved one. When nothing is attached, the hooks they hang off
// (netsim.Network.SetTracer, probe.Prober.SetTracer, per-node counter
// attribution) cost the hot paths a single nil check.
//
// Counter families flow in from every layer that owns an engine: the
// simulator's icmp.*/router.* traffic counters, the prober's probe.*
// accounting, and the traceroute engine's stop-set economics
// (trace.stop.global.hit, trace.stop.local.hit, trace.stop.miss,
// trace.probes.saved). All of these are per-VP quantities counted on
// the engine that ran the VP, so merged totals are shard-invariant;
// only counters netsim.CounterIsLocal names are excluded from merging.
package obs

import (
	"encoding/json"
	"net/netip"
	"sort"
	"sync"
	"time"

	"recordroute/internal/netsim"
	"recordroute/internal/probe"
)

// Counters maps counter name → value. JSON-serializing a Counters map
// is deterministic because encoding/json sorts map keys.
type Counters map[string]uint64

// ShardMetrics is one engine's (one shard replica's) counter state.
type ShardMetrics struct {
	// Shard labels the engine: "shard0".."shardN" for campaign
	// replicas, "shared" for the study's shared topology engine, or an
	// arm label for chaos sweeps.
	Shard string `json:"shard"`
	// VirtualTime is the engine clock at capture, in nanoseconds.
	VirtualTime time.Duration `json:"virtual_time_ns"`
	// Counters is the engine's nonzero network-wide counters.
	Counters Counters `json:"counters"`
	// Nodes breaks counters down by emitting router/host; nil unless
	// per-node attribution was enabled on the network.
	Nodes map[string]Counters `json:"nodes,omitempty"`
}

// Snapshot is a labeled, mergeable capture of campaign metrics.
type Snapshot struct {
	// Label identifies what was captured ("campaign", "baseline",
	// "lossy/retry", ...).
	Label string `json:"label"`
	// Shards holds per-engine metrics in shard order.
	Shards []ShardMetrics `json:"shards"`
	// Merged sums counters across all shards, excluding engine-local
	// diagnostics (netsim.CounterIsLocal) whose values depend on
	// per-engine evaluation order rather than simulated events. Because
	// campaign results are shard-invariant (DESIGN.md §6), Merged is
	// byte-identical in JSON across shard counts for the same topology,
	// seed, and destination set; engine-local counters remain visible in
	// the per-shard sections.
	Merged Counters `json:"merged"`
}

// Capture reads one network's counters into a ShardMetrics. It is a
// pure read of engine state; calling it does not perturb the run.
func Capture(shard string, n *netsim.Network) ShardMetrics {
	m := ShardMetrics{
		Shard:       shard,
		VirtualTime: n.Now(),
		Counters:    Counters(n.CounterMap()),
	}
	if nc := n.NodeCounters(); nc != nil {
		m.Nodes = make(map[string]Counters, len(nc))
		for node, c := range nc {
			m.Nodes[node] = Counters(c)
		}
	}
	return m
}

// NewSnapshot assembles a labeled snapshot from per-shard captures,
// computing the merged totals over the shard-invariant counters.
func NewSnapshot(label string, shards ...ShardMetrics) *Snapshot {
	s := &Snapshot{Label: label, Shards: shards, Merged: make(Counters)}
	for _, sm := range shards {
		for k, v := range sm.Counters {
			if netsim.CounterIsLocal(k) {
				continue
			}
			s.Merged[k] += v
		}
	}
	return s
}

// Delta returns after − before per counter, dropping zero deltas.
// Counters present on only one side are treated as zero on the other;
// negative deltas cannot occur because counters are monotonic.
func Delta(before, after Counters) Counters {
	out := make(Counters)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// MarshalIndent renders the snapshot with deterministic field and key
// ordering (struct fields are ordered; map keys are sorted by
// encoding/json), so equal snapshots serialize byte-identically.
func (s *Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// CounterNames returns the sorted union of counter names across the
// snapshot's shards.
func (s *Snapshot) CounterNames() []string {
	seen := make(map[string]bool)
	for _, sm := range s.Shards {
		for k := range sm.Counters {
			seen[k] = true
		}
	}
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Event is one trace record. At is the virtual clock of the engine the
// event fired on (shard-local time for campaign probes).
type Event struct {
	At    time.Duration `json:"at_ns"`
	Node  string        `json:"node,omitempty"` // emitting router/host; "" for prober events
	VP    string        `json:"vp,omitempty"`   // vantage point, for prober lifecycle events
	Event string        `json:"event"`
	Src   netip.Addr    `json:"src"` // "" when unknown (e.g. pre-decode drops)
	Dst   netip.Addr    `json:"dst"`
	Seq   uint16        `json:"seq,omitempty"`     // probe sequence number (prober events)
	Try   int           `json:"attempt,omitempty"` // 1-based attempt (prober events)
}

// Filter selects which events a Trace keeps. The zero value keeps
// everything.
type Filter struct {
	// DstPrefix, when valid, keeps only events whose src or dst falls
	// inside the prefix (replies flow back with the probed address as
	// src, so matching either side follows a probe both ways).
	DstPrefix netip.Prefix
	// VP, when non-empty, keeps only prober lifecycle events from that
	// vantage point (node-level events are unattributed to VPs and are
	// kept unless DstPrefix excludes them).
	VP string
}

func (f Filter) keep(e Event) bool {
	if f.VP != "" && e.VP != "" && e.VP != f.VP {
		return false
	}
	if f.DstPrefix.IsValid() {
		if !(e.Src.IsValid() && f.DstPrefix.Contains(e.Src)) &&
			!(e.Dst.IsValid() && f.DstPrefix.Contains(e.Dst)) {
			return false
		}
	}
	return true
}

// DefaultTraceCap bounds a Trace's ring buffer when the caller passes
// no explicit capacity.
const DefaultTraceCap = 1 << 16

// Trace is a bounded ring buffer of events. Writes are mutex-guarded
// because parallel campaigns emit from several shard goroutines; the
// engines themselves stay single-threaded, so the lock serializes only
// the trace append, never simulation work.
type Trace struct {
	mu      sync.Mutex
	filter  Filter
	ring    []Event
	next    int // ring index of the next write
	wrapped bool
	dropped uint64 // events evicted by ring wrap
}

// NewTrace returns a trace keeping at most capacity events (oldest
// evicted first); capacity <= 0 means DefaultTraceCap.
func NewTrace(capacity int, f Filter) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{filter: f, ring: make([]Event, 0, capacity)}
}

// Add records an event if the filter keeps it.
func (t *Trace) Add(e Event) {
	if !t.filter.keep(e) {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
		t.next = (t.next + 1) % cap(t.ring)
		t.wrapped = true
		t.dropped++
	}
	t.mu.Unlock()
}

// Events returns the retained events in arrival order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]Event(nil), t.ring...)
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dropped reports how many events the ring evicted.
func (t *Trace) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len reports how many events are retained.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// NetworkTracer adapts the trace into a netsim.TraceFunc for node-level
// events.
func (t *Trace) NetworkTracer() netsim.TraceFunc {
	return func(at time.Duration, node, event string, src, dst netip.Addr) {
		t.Add(Event{At: at, Node: node, Event: event, Src: src, Dst: dst})
	}
}

// ProberTracer adapts the trace into a probe.TraceFunc for the named
// vantage point's lifecycle events.
func (t *Trace) ProberTracer(vp string) probe.TraceFunc {
	return func(at time.Duration, event string, dst netip.Addr, seq uint16, attempt int) {
		t.Add(Event{At: at, VP: vp, Event: event, Dst: dst, Seq: seq, Try: attempt})
	}
}
