package netsim

import (
	"net/netip"
	"time"
)

// Observability hooks. Both facilities are nil/disabled by default and
// every hot-path call site guards with a single nil check, so campaigns
// that never enable them pay no allocations and no indirect calls (the
// Figure-1 benchmarks guard this). Neither facility touches the event
// queue or the clock: counters and traces are written synchronously
// from within the event being observed, so enabling them can never
// reorder, delay, or add virtual-time events — observed runs stay
// byte-identical to unobserved ones.

// TraceFunc observes node-level packet events: per-hop Record Route
// stamps, slow-path admissions, rate-limit and filter verdicts, TTL
// expiries, and end-host responses. at is the virtual clock, node the
// emitting router or host, event the counter-style event name (e.g.
// "router.rr.stamped"), and src/dst the decoded
// addresses of the packet being processed (zero when the event fires
// before the header is decoded, e.g. a chaos-offline drop).
type TraceFunc func(at time.Duration, node, event string, src, dst netip.Addr)

// SetTracer installs fn as the network's packet-event tracer; nil
// removes it. The tracer is called synchronously from the forwarding
// and delivery paths and must not retain references or re-enter the
// engine.
func (n *Network) SetTracer(fn TraceFunc) { n.tracer = fn }

// EnableNodeCounters switches on per-node counter attribution: every
// router- and host-emitted counter is additionally recorded under the
// emitting node's name, readable via NodeCounters. Off by default —
// attribution costs a map probe per event, which campaigns that only
// want network-wide totals should not pay.
func (n *Network) EnableNodeCounters() {
	if n.nodeCounts == nil {
		n.nodeCounts = make(map[NodeID][]uint64)
	}
}

// NodeCountersEnabled reports whether per-node attribution is on.
func (n *Network) NodeCountersEnabled() bool { return n.nodeCounts != nil }

// countNode attributes one count to a node; callers guard on
// n.nodeCounts != nil.
func (n *Network) countNode(node NodeID, id int, delta uint64) {
	s := n.nodeCounts[node]
	if id >= len(s) {
		s = append(s, make([]uint64, id+1-len(s))...)
	}
	s[id] += delta
	n.nodeCounts[node] = s
}

// nodeName is plane.name for the tracing paths, which name the same few
// nodes over and over: each name is made into a string once per network.
func (n *Network) nodeName(id NodeID) string {
	s, ok := n.nodeNames[id]
	if !ok {
		s = n.p.name(id)
		n.nodeNames[id] = s
	}
	return s
}

// CounterMap returns every nonzero network-wide counter keyed by name —
// the structured sibling of Counters() for metrics snapshots.
func (n *Network) CounterMap() map[string]uint64 {
	names := counterSnapshot()
	out := make(map[string]uint64)
	for id, v := range n.counters {
		if v != 0 {
			out[names[id]] = v
		}
	}
	return out
}

// NodeCounters returns the per-node nonzero counters (node → counter
// name → value); nil when EnableNodeCounters was never called.
func (n *Network) NodeCounters() map[string]map[string]uint64 {
	if n.nodeCounts == nil {
		return nil
	}
	names := counterSnapshot()
	out := make(map[string]map[string]uint64, len(n.nodeCounts))
	for node, vals := range n.nodeCounts {
		m := make(map[string]uint64)
		for id, v := range vals {
			if v != 0 {
				m[names[id]] = v
			}
		}
		if len(m) > 0 {
			out[n.p.name(node)] = m
		}
	}
	return out
}
