package trace

import (
	"net/netip"
	"time"

	"recordroute/internal/probe"
)

// A trace probes at most maxTTL hops, and a probing phase ends after
// gapLimit consecutive silent hops.
const (
	maxTTL   = 30
	gapLimit = 4
)

// Options controls a traceroute round.
type Options struct {
	// Timeout is the per-probe wait; 0 means the prober default.
	Timeout time.Duration
	// FirstHop is the forward phase's starting TTL before the VP has
	// enough destination-distance samples to pick its own midpoint;
	// 0 means 6.
	FirstHop uint8
	// Exhaustive disables both stop sets and probes every destination
	// classically from TTL 1 — the naive arm doubletree is measured
	// against, and the mode path-comparison experiments use.
	Exhaustive bool
}

func (o Options) firstHop() uint8 {
	if o.FirstHop == 0 {
		return 6
	}
	return o.FirstHop
}

// Hop is one probe of a trace, in probe order (forward phase first,
// then backward).
type Hop struct {
	// TTL is the probe's initial TTL.
	TTL uint8 `json:"ttl"`
	// Addr is the responding address; invalid on silence.
	Addr netip.Addr `json:"addr"`
	// RTT is the probe round-trip time (zero on silence).
	RTT time.Duration `json:"rtt"`
	// Final marks an echo reply from the destination itself.
	Final bool `json:"final,omitempty"`
}

// Responded reports whether this hop answered.
func (h Hop) Responded() bool { return h.Addr.IsValid() }

// Result is one completed (VP, destination) trace. It records enough
// to replay its effect on the stop sets deterministically (Rebuild),
// which is what lets journaled campaigns archive traces instead of
// stop-set state.
type Result struct {
	VP  string     `json:"vp"`
	Dst netip.Addr `json:"dst"`
	// Hops holds every probe sent, in probe order; Hops[:FwdProbes]
	// is the forward phase.
	Hops      []Hop `json:"hops"`
	FwdProbes int   `json:"fwd"`
	// Reached reports an echo reply from the destination; DestTTL is
	// its hop distance — measured when Reached, inferred from the
	// global set's remaining-hop value when Inferred, 0 when unknown.
	Reached  bool  `json:"reached,omitempty"`
	Inferred bool  `json:"inferred,omitempty"`
	DestTTL  uint8 `json:"dest_ttl,omitempty"`
	// GlobalStop marks a forward phase halted by a global-set hit;
	// LocalStop a backward phase halted by a local-set hit. Misses
	// counts forward responders consulted against the global set that
	// were absent from it.
	GlobalStop bool `json:"gstop,omitempty"`
	LocalStop  bool `json:"lstop,omitempty"`
	Misses     int  `json:"misses,omitempty"`
}

// HopAddrs returns the responding hop addresses in probe order,
// excluding silence and the destination's own replies.
func (r Result) HopAddrs() []netip.Addr {
	var out []netip.Addr
	for _, h := range r.Hops {
		if h.Responded() && !h.Final {
			out = append(out, h.Addr)
		}
	}
	return out
}

// Stats aggregates one VP round's probe economics.
type Stats struct {
	Traces      int `json:"traces"`
	Probes      int `json:"probes"`
	Reached     int `json:"reached"`
	Inferred    int `json:"inferred"`
	GlobalStops int `json:"global_stops"`
	LocalStops  int `json:"local_stops"`
	Misses      int `json:"misses"`
	// Saved counts probes a stop-set hit made unnecessary: the
	// remaining forward hops on a global hit, the remaining backward
	// hops on a local hit.
	Saved int `json:"saved"`
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Traces += other.Traces
	s.Probes += other.Probes
	s.Reached += other.Reached
	s.Inferred += other.Inferred
	s.GlobalStops += other.GlobalStops
	s.LocalStops += other.LocalStops
	s.Misses += other.Misses
	s.Saved += other.Saved
}

// VPRound is one VP's completed round: its traces, the global-set
// delta it contributes to the between-rounds merge (nil when
// exhaustive), and its probe accounting.
type VPRound struct {
	VP     string
	Traces []Result
	Delta  *GlobalSet
	Stats  Stats
}

// Run traces dsts from p strictly sequentially — one destination at a
// time, each probe chained on the previous response — consulting the
// frozen global set on the forward phase and st.Local on the backward
// phase, then calls done with the completed round. Everything runs on
// the prober's transport event context; the caller drains the engine.
// An exhaustive round reads neither stop set nor prefixOf (all may be
// nil) and leaves Delta nil.
func Run(vp string, p *probe.Prober, st *VPState, global *GlobalSet, prefixOf func(netip.Addr) netip.Prefix, dsts []netip.Addr, opts Options, done func(*VPRound)) {
	round := newRound(vp, opts)
	if len(dsts) == 0 {
		p.Schedule(0, func() { done(round) })
		return
	}
	r := &runner{
		p: p, st: st, global: global, prefixOf: prefixOf, dsts: dsts, opts: opts, done: done,
		round: round,
		hops:  make([]Hop, 0, maxTTL),
	}
	r.onForward, r.onBackward = r.forwardReply, r.backwardReply
	r.traceNext()
}

// newRound returns an empty round; only a doubletree round has a delta.
func newRound(vp string, opts Options) *VPRound {
	round := &VPRound{VP: vp}
	if !opts.Exhaustive {
		round.Delta = NewGlobalSet()
	}
	return round
}

// Each is classic traceroute: one exhaustive single-destination Run per
// destination, trace i starting i/rate after the call (rate ≤ 0 means
// 20), so traces overlap while each one's probes stay sequential. done
// receives the traces in destination order.
func Each(vp string, p *probe.Prober, dsts []netip.Addr, rate float64, opts Options, done func([]Result)) {
	if len(dsts) == 0 {
		p.Schedule(0, func() { done(nil) })
		return
	}
	if rate <= 0 {
		rate = 20
	}
	opts.Exhaustive = true
	out, left := make([]Result, len(dsts)), len(dsts)
	interval := time.Duration(float64(time.Second) / rate)
	for i := range dsts {
		p.Schedule(time.Duration(i)*interval, func() {
			Run(vp, p, nil, nil, nil, dsts[i:i+1], opts, func(r *VPRound) {
				if out[i], left = r.Traces[0], left-1; left == 0 {
					done(out)
				}
			})
		})
	}
}

// runner is one Run in progress. Traces are sequential and a trace has
// one probe in flight, so the round needs one of everything: the trace
// being built, the TTL being probed, a hop buffer, and the two reply
// callbacks, bound once instead of once per probe.
type runner struct {
	p        *probe.Prober
	st       *VPState
	global   *GlobalSet
	prefixOf func(netip.Addr) netip.Prefix
	dsts     []netip.Addr
	opts     Options
	done     func(*VPRound)
	round    *VPRound
	next     int // index into dsts of the trace after the current one

	// The trace in progress.
	res    Result
	prefix netip.Prefix
	hops   []Hop // res.Hops while it grows; a trace sends at most maxTTL probes
	h      uint8 // the forward phase's first TTL
	ttl    uint8 // the TTL of the probe in flight
	gaps   int

	onForward, onBackward func(probe.Result)
}

// traceNext starts one doubletree (or exhaustive) trace toward the next
// destination, or ends the round.
func (r *runner) traceNext() {
	if r.next >= len(r.dsts) {
		r.done(r.round)
		return
	}
	dst := r.dsts[r.next]
	r.next++
	r.res = Result{VP: r.round.VP, Dst: dst}
	r.hops = r.hops[:0]
	r.gaps = 0
	r.h = 1
	if !r.opts.Exhaustive {
		r.prefix = r.prefixOf(dst)
		r.h = min(r.st.midTTL(r.opts), maxTTL)
	}
	r.send(r.h, r.onForward)
}

// send probes the current destination at ttl.
func (r *runner) send(ttl uint8, cb func(probe.Result)) {
	r.ttl = ttl
	r.p.StartOne(probe.Spec{Dst: r.res.Dst, Kind: probe.TTLPing, TTL: ttl}, r.opts.Timeout, cb)
}

// hop records the outcome of the probe in flight; silence leaves Addr
// and RTT zero.
func (r *runner) hop(pr probe.Result, final bool) {
	r.hops = append(r.hops, Hop{TTL: r.ttl, Addr: pr.From, RTT: pr.RTT(), Final: final})
}

// finish folds the completed trace into the round and moves on.
func (r *runner) finish() {
	r.res.Hops = append([]Hop(nil), r.hops...)
	absorb(r.st, r.round, r.res, r.prefixOf, r.opts)
	r.traceNext()
}

// endForward closes the forward phase and opens the backward one
// (exhaustive traces start at TTL 1, so there is nothing behind).
func (r *runner) endForward() {
	r.res.FwdProbes = len(r.hops)
	if r.opts.Exhaustive || r.h <= 1 {
		r.finish()
		return
	}
	r.gaps = 0
	r.send(r.h-1, r.onBackward)
}

func (r *runner) forwardReply(pr probe.Result) {
	res, t := &r.res, r.ttl
	switch pr.Type {
	case probe.EchoReply:
		r.hop(pr, true)
		res.Reached = true
		res.DestTTL = t
		r.endForward()
		return
	case probe.TimeExceeded:
		r.hop(pr, false)
		r.gaps = 0
		if !r.opts.Exhaustive {
			if rem, ok := r.global.Lookup(pr.From, r.prefix); ok {
				// The path's tail is known: halt, crediting
				// the remaining hops, and infer the
				// destination's distance without probing it.
				res.GlobalStop = true
				res.Inferred = true
				res.DestTTL = t + rem
				r.endForward()
				return
			}
			res.Misses++
		}
	case probe.NoResponse:
		r.hop(pr, false)
		r.gaps++
	default:
		r.hop(pr, false)
		res.FwdProbes = len(r.hops)
		r.finish()
		return
	}
	if t >= maxTTL || r.gaps >= gapLimit {
		r.endForward()
		return
	}
	r.send(t+1, r.onForward)
}

func (r *runner) backwardReply(pr probe.Result) {
	res, t := &r.res, r.ttl
	switch pr.Type {
	case probe.EchoReply:
		r.hop(pr, true)
		res.Reached = true
		if res.DestTTL == 0 || t < res.DestTTL {
			res.DestTTL = t
			res.Inferred = false
		}
		r.gaps = 0
	case probe.TimeExceeded:
		r.hop(pr, false)
		r.gaps = 0
		if r.st.Local.Has(pr.From) {
			res.LocalStop = true
			r.finish()
			return
		}
	case probe.NoResponse:
		r.hop(pr, false)
		r.gaps++
		if r.gaps >= gapLimit {
			r.finish()
			return
		}
	default:
		// Unreachables and send errors end the trace.
		r.hop(pr, false)
		r.finish()
		return
	}
	if t <= 1 {
		r.finish()
		return
	}
	r.send(t-1, r.onBackward)
}

// Rebuild reconstructs a VPRound from archived traces by replaying
// their effect on the VP's state: the identical delta, stats, local
// set, and midpoint adaptation the live run produced — the
// journal-resume path. absorb is a pure function of (prior state,
// result), so replay order equals live order.
func Rebuild(vp string, st *VPState, prefixOf func(netip.Addr) netip.Prefix, traces []Result, opts Options) *VPRound {
	round := newRound(vp, opts)
	for _, res := range traces {
		absorb(st, round, res, prefixOf, opts)
	}
	return round
}

// absorb folds one completed trace into the round and the VP's
// persistent state: probe accounting, the stop-set delta, the local
// set, and midpoint adaptation. It is also the journal-replay path
// (Rebuild), so it must stay a pure function of (prior state, result).
func absorb(st *VPState, round *VPRound, res Result, prefixOf func(netip.Addr) netip.Prefix, opts Options) {
	round.Traces = append(round.Traces, res)
	round.Stats.Traces++
	round.Stats.Probes += len(res.Hops)
	round.Stats.Misses += res.Misses
	if res.Reached {
		round.Stats.Reached++
	}
	if res.Inferred {
		round.Stats.Inferred++
	}
	if res.GlobalStop && res.FwdProbes > 0 {
		round.Stats.GlobalStops++
		round.Stats.Saved += int(res.DestTTL) - int(res.Hops[res.FwdProbes-1].TTL)
	}
	if res.LocalStop && len(res.Hops) > 0 {
		round.Stats.LocalStops++
		round.Stats.Saved += int(res.Hops[len(res.Hops)-1].TTL) - 1
	}
	if opts.Exhaustive {
		return
	}
	for _, hp := range res.Hops {
		if hp.Responded() && !hp.Final {
			st.Local.Add(hp.Addr)
		}
	}
	if res.DestTTL == 0 {
		return
	}
	st.observeDestTTL(res.DestTTL)
	prefix := prefixOf(res.Dst)
	for _, hp := range res.Hops {
		if hp.Responded() && !hp.Final && hp.TTL < res.DestTTL {
			round.Delta.Add(Key{Iface: hp.Addr, Prefix: prefix}, res.DestTTL-hp.TTL)
		}
	}
}
