package measure

import (
	"context"
	"net/netip"

	"recordroute/internal/netsim"
	"recordroute/internal/obs"
	"recordroute/internal/probe"
	"recordroute/internal/topology"
	"recordroute/internal/trace"
)

// Fleet is the campaign surface the study layer measures through: a set
// of vantage points that can fan batches out and run the virtual clock
// to quiescence. It is implemented by Campaign (one shared engine) and
// ParallelCampaign (sharded engine replicas with a deterministic merge),
// so experiments choose an execution strategy without changing shape.
//
// Partial-results contract: when a shard of a sharded executor fails
// mid-primitive (a panic while its engine drains), the failure is
// contained to that shard. The primitive still returns, merging the
// surviving shards' results as usual; the failed shard's VPs are
// missing (or, if the failure struck between batch completions,
// partial) in the returned maps and are excluded from every later
// primitive. ShardErrors reports exactly which VPs were lost and why —
// callers that need completeness must check it after each primitive.
// The single-engine Campaign has no shard boundary to contain a
// failure, so there a panic propagates to the caller and ShardErrors
// is always empty.
type Fleet interface {
	// VP returns the named vantage point, or nil.
	VP(name string) *VantagePoint
	// Run drains pending events on every engine the fleet spans and
	// leaves all fleet clocks at the same virtual time.
	Run()
	// PingRRAll sends one ping-RR from every VP to every destination.
	PingRRAll(dests []netip.Addr, opts probe.Options, orderFor func(vp string, dests []netip.Addr) []netip.Addr) map[string][]probe.Result
	// PingAll sends count plain pings per destination from every VP.
	PingAll(dests []netip.Addr, count int, opts probe.Options) map[string][][]probe.Result
	// PingRRUDPAll sends one ping-RRudp from every VP to its targets.
	PingRRUDPAll(perVP map[string][]netip.Addr, opts probe.Options) map[string][]probe.Result
	// PingBatchVP sends count plain pings per destination from the
	// single named VP — the origin phases the paper runs from one
	// vantage point. A sharded executor fans contiguous destination
	// ranges across its engine replicas; send times and sequence numbers
	// derive from each destination's global index, so the merge is
	// invariant under shard count mod ReplyIPID (DESIGN.md §15).
	// Results are grouped per destination in send order; nil when the
	// VP is unknown.
	PingBatchVP(vp string, dests []netip.Addr, count int, opts probe.Options) [][]probe.Result
	// PingSeriesVP probes every address rounds times from the named VP,
	// round-major interleaved (the alias IP-ID sampling schedule), and
	// returns flat results in global spec order (round*len(addrs)+i). A
	// sharded executor partitions addresses across replicas keeping all
	// addresses that share group[i] on one replica, so IP-ID series
	// compared pairwise stay co-located with their shared counters;
	// group may be nil when no such constraint exists.
	PingSeriesVP(vp string, addrs []netip.Addr, group []int, rounds int, opts probe.Options) []probe.Result
	// DoubletreeAll runs one Doubletree traceroute round: each VP
	// traces its listed targets sequentially under the session's stop
	// sets (exhaustively when opts.Exhaustive), and the per-VP deltas
	// are merged into the session's global set afterwards.
	DoubletreeAll(perVP map[string][]netip.Addr, sess *trace.Session, opts trace.Options) map[string]*trace.VPRound
	// ShardErrors reports executor slices that failed during earlier
	// primitives, in shard order; empty while every shard is healthy.
	// See the partial-results contract above.
	ShardErrors() []ShardError
	// Observe attaches an observability configuration to every engine
	// and prober the fleet owns; nil or inactive observers are no-ops.
	Observe(o *obs.Observer)
	// Metrics captures a labeled snapshot of the fleet's counters, one
	// ShardMetrics per engine the fleet spans.
	Metrics(label string) *obs.Snapshot
}

// Campaign fans measurements across many vantage points concurrently
// inside one simulation engine, offering synchronous collect-all APIs:
// every VP's batch is started, the engine runs to quiescence, and the
// per-VP results come back keyed by VP name.
type Campaign struct {
	Eng *netsim.Engine
	Net *netsim.Network
	VPs []*VantagePoint

	byName map[string]*VantagePoint
	ctx    context.Context // nil unless cancellation is armed (SetContext)
}

// NewCampaign builds a campaign over the given topology VPs (any mix of
// platform and cloud VPs). Prober identifiers are assigned sequentially
// so no two VPs cross-match.
func NewCampaign(topo *topology.Topology, vps []*topology.VP) *Campaign {
	c := &Campaign{
		Eng:    topo.Net.Engine(),
		Net:    topo.Net,
		byName: make(map[string]*VantagePoint, len(vps)),
	}
	for i, v := range vps {
		vp := NewVantagePoint(v.Name, v.Host, topo.Net.Engine(), uint16(0x4000+i))
		c.VPs = append(c.VPs, vp)
		c.byName[v.Name] = vp
	}
	return c
}

// VP returns the named vantage point, or nil.
func (c *Campaign) VP(name string) *VantagePoint {
	return c.byName[name]
}

// SetContext arms cooperative cancellation, checked at the start of
// every primitive: once ctx is done the next primitive aborts with a
// Canceled panic (classify via CanceledFrom) instead of starting more
// probes. The single shared engine has no per-shard containment, so
// unlike ParallelCampaign there is no per-batch checkpoint abort — a
// running drain always completes.
func (c *Campaign) SetContext(ctx context.Context) { c.ctx = ctx }

// Run drains the engine's event queue.
func (c *Campaign) Run() {
	checkCanceled(c.ctx)
	c.Eng.Run()
}

// ShardErrors always returns nil: the single shared engine has no
// shard boundary to contain a failure, so a panic propagates to the
// caller instead of being recovered per-shard.
func (c *Campaign) ShardErrors() []ShardError { return nil }

// fan is the shape of every collect-all primitive: start begins one
// VP's batch, handing it the callback that files the batch's results
// under the VP's name (a VP start leaves out is absent from the map),
// and the engine then runs to quiescence.
func fan[T any](c *Campaign, start func(vp *VantagePoint, done func(T))) map[string]T {
	checkCanceled(c.ctx)
	out := make(map[string]T, len(c.VPs))
	for _, vp := range c.VPs {
		start(vp, func(rs T) { out[vp.Name] = rs })
	}
	c.Eng.Run()
	return out
}

// PingRRAll sends one ping-RR from every VP to every destination in
// dests (per-VP order may be permuted via orderFor) and returns results
// keyed by VP name, in that VP's send order.
func (c *Campaign) PingRRAll(dests []netip.Addr, opts probe.Options, orderFor func(vp string, dests []netip.Addr) []netip.Addr) map[string][]probe.Result {
	return fan(c, func(vp *VantagePoint, done func([]probe.Result)) {
		ds := dests
		if orderFor != nil {
			ds = orderFor(vp.Name, dests)
		}
		vp.Batch(ds, probe.PingRR, opts, done)
	})
}

// PingAll sends count plain pings per destination from every VP.
func (c *Campaign) PingAll(dests []netip.Addr, count int, opts probe.Options) map[string][][]probe.Result {
	return fan(c, func(vp *VantagePoint, done func([][]probe.Result)) { vp.PingBatch(dests, count, opts, done) })
}

// PingBatchVP sends count plain pings per destination from the single
// named VP over the shared engine — the full [0,len(dests)) range of
// the indexed schedule, byte-identical to what a sharded fleet's merged
// ranges produce (mod ReplyIPID).
func (c *Campaign) PingBatchVP(name string, dests []netip.Addr, count int, opts probe.Options) [][]probe.Result {
	checkCanceled(c.ctx)
	vp := c.byName[name]
	if vp == nil {
		return nil
	}
	var out [][]probe.Result
	vp.PingBatchRange(dests, 0, len(dests), count, opts, func(gs [][]probe.Result) { out = gs })
	c.Eng.Run()
	return out
}

// PingSeriesVP probes every address rounds times from the named VP on
// the shared engine, in round-major interleaved order. group is unused
// here: one engine holds every counter.
func (c *Campaign) PingSeriesVP(name string, addrs []netip.Addr, group []int, rounds int, opts probe.Options) []probe.Result {
	checkCanceled(c.ctx)
	vp := c.byName[name]
	if vp == nil {
		return nil
	}
	sel := make([]int, len(addrs))
	for i := range sel {
		sel[i] = i
	}
	var out []probe.Result
	vp.PingSeriesSlice(addrs, sel, rounds, opts, func(rs []probe.Result) { out = rs })
	c.Eng.Run()
	return out
}

// PingRRUDPAll sends one ping-RRudp from every VP to its listed targets.
func (c *Campaign) PingRRUDPAll(perVP map[string][]netip.Addr, opts probe.Options) map[string][]probe.Result {
	return fan(c, func(vp *VantagePoint, done func([]probe.Result)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.Batch(ds, probe.PingRRUDP, opts, done)
		}
	})
}

// TracerouteAll traces each VP's listed targets.
func (c *Campaign) TracerouteAll(perVP map[string][]netip.Addr, opts TraceOptions) map[string][]Trace {
	return fan(c, func(vp *VantagePoint, done func([]Trace)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.TracerouteBatch(ds, opts, done)
		}
	})
}

// TTLPingRRAll sends TTL-limited ping-RRs: per VP, targets[i] probed
// with ttls[i].
func (c *Campaign) TTLPingRRAll(perVP map[string][]netip.Addr, ttls map[string][]uint8, opts probe.Options) map[string][]probe.Result {
	return fan(c, func(vp *VantagePoint, done func([]probe.Result)) {
		if ds := perVP[vp.Name]; len(ds) > 0 {
			vp.TTLPingRRBatch(ds, ttls[vp.Name], opts, done)
		}
	})
}
