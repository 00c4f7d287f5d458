package probe

import (
	"errors"
	"net/netip"
	"time"

	"recordroute/internal/packet"
)

// Options controls batch pacing, timeouts, and retransmission.
type Options struct {
	// Rate is the send rate in probes per second; 0 means DefaultRate.
	Rate float64
	// Timeout is how long to wait for each probe's response; 0 means
	// DefaultTimeout. With retries, each retransmission doubles the
	// previous attempt's timeout (exponential backoff), and Timeout also
	// caps the adaptive first-attempt timeout.
	Timeout time.Duration
	// Retries is how many times an unanswered probe is retransmitted
	// after its attempt times out; 0 keeps the paper's single-shot
	// probing. Each attempt draws a fresh sequence number, so a late
	// reply to a superseded attempt still matches the probe — repeated
	// probing recovers loss-induced false negatives.
	Retries int
	// Adaptive derives the first-attempt timeout from the prober's
	// RTT EWMA (srtt + 4*rttvar, the TCP RTO estimator), clamped to
	// [MinAdaptiveTimeout, Timeout]. Until a first RTT sample exists,
	// the full Timeout applies.
	Adaptive bool
}

// Default pacing values; 20 pps is the rate the paper's studies used.
const (
	DefaultRate    = 20.0
	DefaultTimeout = 2 * time.Second
	// MinAdaptiveTimeout floors the adaptive timeout so a streak of
	// fast replies cannot shrink it into instant false timeouts.
	MinAdaptiveTimeout = 100 * time.Millisecond
)

// MaxOutstanding caps concurrently pending probes when a one-shot or an
// expectation draws a number from the counter. The 16-bit sequence space
// is the hard limit for matching replies to probes; the margin below it
// keeps allocSeq's linear scan for a free number cheap.
const MaxOutstanding = 1<<16 - 1024

// ErrTooManyOutstanding is the Result.Err of a probe refused because
// MaxOutstanding probes were already awaiting responses.
var ErrTooManyOutstanding = errors.New("probe: too many outstanding probes (sequence space exhausted)")

func (o Options) rate() float64 {
	if o.Rate <= 0 {
		return DefaultRate
	}
	return o.Rate
}

func (o Options) timeout() time.Duration {
	if o.Timeout <= 0 {
		return DefaultTimeout
	}
	return o.Timeout
}

func (o Options) attempts() int {
	if o.Retries <= 0 {
		return 1
	}
	return o.Retries + 1
}

// TraceFunc observes probe lifecycle events: "probe.send",
// "probe.retransmit", "probe.reply", "probe.timeout", "probe.senderror".
// at is the transport clock, dst the probed destination, seq the
// attempt's sequence number, and attempt the 1-based attempt count.
// Tracers are called synchronously from the prober's event context and
// must not re-enter it.
type TraceFunc func(at time.Duration, event string, dst netip.Addr, seq uint16, attempt int)

// Prober sends probes over a Transport and matches responses. A Prober
// is single-threaded: all callbacks arrive from the transport's event
// context. Create one Prober per vantage point with a distinct id.
//
// A probe's bookkeeping costs no allocation: ops and attempts live in
// per-prober slabs recycled through free lists, timers are the two func
// values below scheduled with a packed argument, the wire image is built
// in one scratch buffer, and recorded hops are carved out of an arena
// (DESIGN.md §12, "Who owns a probe's state").
type Prober struct {
	tr      Transport
	id      uint16
	nextSeq uint16
	tracer  TraceFunc // nil unless observability is attached

	ops      []probeOp      // slab of logical probes, indexed by op slot
	freeOps  []int32        // recycled op slots
	atts     []pendingProbe // slab of transmitted attempts
	freeAtts []int32        // recycled attempt slots
	pending  seqTable       // sequence number → attempt slot
	batches  []*batch       // batches in flight, indexed by batch.slot
	freeBats []int32        // recycled batch slots

	// The prober's two timer callbacks, bound once: Transport.ScheduleCall
	// takes them with a packed (slot, generation) or (batch, position).
	onTimeout, onLaunch func(uint64)

	wire    []byte       // scratch for the probe being sent; Inject does not keep it
	rrArena []netip.Addr // current chunk that Result.RR slices are carved from

	// RTT EWMA state for adaptive timeouts (RFC 6298 estimator). Zero
	// srtt means no sample yet.
	srtt, rttvar time.Duration

	// counters for diagnostics
	sent, matched, timedOut, ignored, retransmits uint64

	// scratch decode state
	parsed packet.Parsed
	quoted packet.IPv4
	rr     packet.RecordRoute
}

// sink is where a probe's result goes: to its own callback, or into
// position pos of the batch it was launched from.
type sink struct {
	done  func(Result)
	batch *batch
	pos   int32
}

// probeOp is one logical probe: up to maxAttempts transmissions, each
// under its own sequence number, resolved exactly once. Superseded
// attempts stay registered until the op resolves, so a reply outrun by
// a retransmission still matches; resolution releases the op's slot and
// every attempt's, after which further replies count as ignored
// duplicates and the attempts' timers find a newer generation.
type probeOp struct {
	spec Spec
	sink
	baseTimeout time.Duration
	firstSentAt time.Duration
	maxAttempts int
	attempts    int
	last        int32  // newest attempt's slot in Prober.atts; -1 before the first
	external    bool   // RTT unusable: registered by Expect, sent by another prober
	seq         uint16 // a batch probe's first seq; attempt k carries seq + (k-1)
}

// pendingProbe is one transmitted attempt awaiting a response.
type pendingProbe struct {
	sentAt  time.Duration
	op      int32  // the op's slot in Prober.ops
	prev    int32  // the op's previous attempt; -1 for the first
	gen     uint32 // bumped each time the slot is released
	attempt int    // 1-based
	seq     uint16
}

// New returns a Prober for the transport using the given ICMP identifier.
func New(tr Transport, id uint16) *Prober {
	p := &Prober{tr: tr, id: id}
	p.onTimeout, p.onLaunch = p.attemptTimeout, p.launch
	tr.SetReceiver(p.receive)
	return p
}

// SetTracer installs fn as the prober's lifecycle tracer; nil removes
// it. Probers without a tracer pay a single nil check per event.
func (p *Prober) SetTracer(fn TraceFunc) { p.tracer = fn }

// Schedule defers fn on the transport clock; measurement layers use it
// to stagger work without reaching into the transport.
func (p *Prober) Schedule(d time.Duration, fn func()) { p.tr.Schedule(d, fn) }

// Now returns the transport clock.
func (p *Prober) Now() time.Duration { return p.tr.Now() }

// LocalAddr returns the probing source address.
func (p *Prober) LocalAddr() netip.Addr { return p.tr.LocalAddr() }

// Stats returns cumulative (sent, matched, timed out, ignored) counts.
// sent counts transmissions (retransmissions included); timedOut counts
// probes whose final attempt expired.
func (p *Prober) Stats() (sent, matched, timedOut, ignored uint64) {
	return p.sent, p.matched, p.timedOut, p.ignored
}

// Retransmits returns how many transmissions were retries.
func (p *Prober) Retransmits() uint64 { return p.retransmits }

// RTTEstimate returns the prober's smoothed RTT and RTT variance; both
// are zero before the first matched response.
func (p *Prober) RTTEstimate() (srtt, rttvar time.Duration) { return p.srtt, p.rttvar }

// observeRTT folds a matched attempt's RTT into the EWMA (RFC 6298
// constants). Samples are unambiguous even on retransmitted probes:
// each attempt has its own sequence number, so the matched attempt is
// known — Karn's problem does not arise.
func (p *Prober) observeRTT(rtt time.Duration) {
	if rtt < 0 {
		return
	}
	if p.srtt == 0 {
		p.srtt, p.rttvar = rtt, rtt/2
		return
	}
	d := rtt - p.srtt
	if d < 0 {
		d = -d
	}
	p.rttvar += (d - p.rttvar) / 4
	p.srtt += (rtt - p.srtt) / 8
}

// adaptiveTimeout returns the first-attempt timeout under opts: the
// RTO estimate when adaptive and primed, the configured timeout
// otherwise.
func (p *Prober) adaptiveTimeout(o Options) time.Duration {
	max := o.timeout()
	if !o.Adaptive || p.srtt == 0 {
		return max
	}
	rto := p.srtt + 4*p.rttvar
	if rto < MinAdaptiveTimeout {
		rto = MinAdaptiveTimeout
	}
	if rto > max {
		rto = max
	}
	return rto
}

// Outstanding returns the number of probes awaiting response or timeout.
func (p *Prober) Outstanding() int { return p.pending.n }

// StartOne sends a single probe now and calls done exactly once, with a
// response or a timeout result. Used directly by sequential measurements
// (traceroute) that chain probes from callbacks. No retransmission: the
// probe gets exactly one attempt.
func (p *Prober) StartOne(spec Spec, timeout time.Duration, done func(Result)) {
	p.StartOneWith(spec, Options{Timeout: timeout}, done)
}

// StartOneWith is StartOne under opts: its timeout, retransmissions with
// backoff and adaptive first-attempt timeout (Rate has nothing to pace).
func (p *Prober) StartOneWith(spec Spec, opts Options, done func(Result)) {
	oi, _ := p.newOp(spec, sink{done: done}, opts.attempts(), p.adaptiveTimeout(opts))
	p.sendAttempt(oi)
}

// takeSlot pops a recycled slot off a free list, or returns -1.
func takeSlot(free *[]int32) int32 {
	n := len(*free)
	if n == 0 {
		return -1
	}
	i := (*free)[n-1]
	*free = (*free)[:n-1]
	return i
}

// pack32 packs a slot and a word that goes with it into one timer
// argument; the slot is arg>>32, the word uint32(arg).
func pack32(slot int32, lo uint32) uint64 { return uint64(slot)<<32 | uint64(lo) }

// newOp starts an op in a free slot: a probe whose result goes to to,
// with up to maxAttempts attempts of which the first waits timeout. The
// pointer is for filling in the rest and does not outlive the caller's
// next call into the prober.
func (p *Prober) newOp(spec Spec, to sink, maxAttempts int, timeout time.Duration) (int32, *probeOp) {
	oi := takeSlot(&p.freeOps)
	if oi < 0 {
		p.ops = append(p.ops, probeOp{})
		oi = int32(len(p.ops) - 1)
	}
	op := &p.ops[oi]
	*op = probeOp{
		spec:        spec,
		sink:        to,
		maxAttempts: maxAttempts,
		baseTimeout: timeout,
		firstSentAt: p.tr.Now(),
		last:        -1,
	}
	return oi, op
}

// addAttempt records the op's next attempt under seq and returns the
// argument its timeout timer carries: the attempt's slot and the slot's
// generation, by which attemptTimeout tells whether the slot still
// holds this attempt.
func (p *Prober) addAttempt(oi int32, seq uint16) (timer uint64) {
	ai := takeSlot(&p.freeAtts)
	if ai < 0 {
		p.atts = append(p.atts, pendingProbe{})
		ai = int32(len(p.atts) - 1)
	}
	op, pp := &p.ops[oi], &p.atts[ai]
	op.attempts++
	*pp = pendingProbe{sentAt: p.tr.Now(), op: oi, prev: op.last, gen: pp.gen, attempt: op.attempts, seq: seq}
	op.last = ai
	p.pending.put(seq, ai)
	return pack32(ai, pp.gen)
}

// sendAttempt transmits the op's next attempt, or fails the op when no
// sequence number is available or the spec cannot be serialized.
func (p *Prober) sendAttempt(oi int32) {
	op := &p.ops[oi]
	var (
		seq uint16
		ok  bool
	)
	if op.batch != nil {
		// Attempt k (1-based) of a batch probe carries op.seq + (k-1);
		// attempts still counts the k-1 before it. The number is busy only
		// when the sequence space has wrapped onto a probe still in
		// flight: it is exhausted, and the probe fails rather than steal
		// the other's replies.
		seq = op.seq + uint16(op.attempts)
		ok = p.pending.get(seq) < 0
	} else {
		seq, ok = p.allocSeq()
	}
	if !ok {
		p.failOp(oi, 0, ErrTooManyOutstanding)
		return
	}
	wire, err := op.spec.build(p.wire[:0], p.tr.LocalAddr(), p.id, seq)
	if err != nil {
		// Malformed spec (e.g. non-IPv4 destination): fail explicitly
		// rather than panicking mid-study.
		p.failOp(oi, seq, err)
		return
	}
	p.wire = wire
	timer := p.addAttempt(oi, seq)
	p.sent++
	if op.attempts > 1 {
		p.retransmits++
	}
	if p.tracer != nil {
		ev := "probe.send"
		if op.attempts > 1 {
			ev = "probe.retransmit"
		}
		p.tracer(p.tr.Now(), ev, op.spec.Dst, seq, op.attempts)
	}
	// Exponential backoff: attempt k waits baseTimeout << (k-1).
	timeout := op.baseTimeout << (op.attempts - 1)
	p.tr.Inject(wire)
	p.tr.ScheduleCall(timeout, p.onTimeout, timer)
}

// attemptTimeout handles an attempt's timer expiring: retransmit while
// budget remains, otherwise resolve the op as unanswered. timer is what
// addAttempt returned.
func (p *Prober) attemptTimeout(timer uint64) {
	pp := &p.atts[timer>>32]
	if pp.gen != uint32(timer) {
		return // the op resolved; the slot may already hold another probe's attempt
	}
	oi := pp.op
	op := &p.ops[oi]
	if pp.attempt < op.attempts {
		return // a superseded attempt's timer
	}
	if op.attempts < op.maxAttempts {
		p.sendAttempt(oi)
		return
	}
	res := Result{Spec: op.spec, Seq: pp.seq, SentAt: op.firstSentAt,
		Type: NoResponse, Attempts: op.attempts}
	to := p.release(oi)
	p.timedOut++
	if p.tracer != nil {
		p.tracer(p.tr.Now(), "probe.timeout", res.Dst, res.Seq, res.Attempts)
	}
	p.deliver(to, &res)
}

// failOp resolves an op with a SendError result.
func (p *Prober) failOp(oi int32, seq uint16, err error) {
	op := &p.ops[oi]
	res := Result{Spec: op.spec, Seq: seq, SentAt: p.tr.Now(),
		Type: SendError, Err: err, Attempts: op.attempts}
	to := p.release(oi)
	if p.tracer != nil {
		p.tracer(p.tr.Now(), "probe.senderror", res.Dst, seq, res.Attempts)
	}
	p.deliver(to, &res)
}

// release retires a resolved op: every attempt's pending entry and slot,
// then the op's own slot. It returns where the result goes, copied out,
// because from here on the slots belong to whichever probe starts next —
// and the callback deliver runs is usually what starts it.
func (p *Prober) release(oi int32) sink {
	op := &p.ops[oi]
	for ai := op.last; ai >= 0; {
		pp := &p.atts[ai]
		p.pending.del(pp.seq)
		pp.gen++
		p.freeAtts = append(p.freeAtts, ai)
		ai = pp.prev
	}
	to := op.sink
	*op = probeOp{} // drop the callback, batch and Via references
	p.freeOps = append(p.freeOps, oi)
	return to
}

// deliver hands a released op's result to its callback or its batch,
// and the batch's results to its callback once the last one is in.
func (p *Prober) deliver(to sink, res *Result) {
	b := to.batch
	if b == nil {
		to.done(*res)
		return
	}
	b.results[to.pos] = *res
	b.remaining--
	if b.remaining > 0 {
		return
	}
	p.batches[b.slot] = nil
	p.freeBats = append(p.freeBats, b.slot)
	b.done(b.results)
}

// SendWindow bounds how many batch send events sit in the event heap at
// once: launch i enqueues launch i+SendWindow, so a batch holds at most
// SendWindow send events regardless of its size — previously the entire
// batch was enqueued upfront, ~100k heap entries per VP batch at the
// large scale profile.
const SendWindow = 64

// Batch describes a batch of probes: a slice of specs (StartBatch), or N
// of them produced by Gen as each is launched, so that a campaign's
// per-VP batches over one destination list cost no spec array apiece.
//
// A probe's wire image and send time derive from its Index: it leaves at
// t0 + Index*interval, and attempt k carries sequence number base +
// Index*attempts + (k-1), where base is the prober's counter when the
// batch starts and Start advances the counter past the whole block. So a
// batch split into contiguous index ranges, each started on a prober at
// the same counter, sends per destination what the unsplit batch sends —
// what destination-sharded origin phases are built on (DESIGN.md §15) —
// provided opts.Adaptive is off, since each range's RTT estimate sees
// only its own replies.
type Batch struct {
	Specs []Spec // the probes, in send order, N of them; or, when nil:
	N     int
	// Gen returns probe i (0 ≤ i < N) with its Index, which must not
	// decrease with i. It must be pure: Start calls it for the last
	// Index, launch for a probe's spec and again for its successor's.
	Gen func(i int) IndexedSpec
	// Rounds > 1 declares the batch round-major — Rounds passes over
	// N/Rounds destinations — and asks for its results destination-major:
	// probe i's lands at (i mod width)*Rounds + i/width.
	Rounds int
}

// IndexedSpec is a spec pinned to its global position in a larger
// (possibly sharded) destination list.
type IndexedSpec struct {
	Index int
	Spec  Spec
}

// batch is one Batch in flight: where the results collect, and who to
// tell. Its ops point back at it through their sink.
type batch struct {
	Batch
	opts      Options
	done      func([]Result)
	results   []Result
	remaining int // ops not yet resolved
	interval  time.Duration
	seq       uint16 // the first of the batch's block of sequence numbers
	slot      int32  // position in Prober.batches
}

// at returns probe i and its position in the pacing schedule: it leaves
// at t0 + Index*interval.
func (b *batch) at(i int) IndexedSpec {
	if b.Specs != nil {
		return IndexedSpec{Index: i, Spec: b.Specs[i]}
	}
	return b.Gen(i)
}

// StartBatch paces the probes out in order at opts.Rate and calls done
// once with results in spec order after every probe has resolved.
func (p *Prober) StartBatch(specs []Spec, opts Options, done func([]Result)) {
	p.Start(Batch{Specs: specs, N: len(specs)}, opts, done)
}

// Start registers the batch, reserves its block of sequence numbers, and
// schedules its first SendWindow launches.
//
// Sends are windowed, not enqueued upfront: each launch chains its
// i+SendWindow successor after (Index_{i+W} - Index_i) * interval.
// Because launch i fires at exactly t0 + Index_i*interval on the
// integer-nanosecond virtual clock, the successor lands at exactly t0 +
// Index_{i+W}*interval even when the indices are sparse — pacing is
// byte-identical to the upfront schedule, and the adaptive timeout is
// still evaluated at each probe's send time.
func (p *Prober) Start(spec Batch, opts Options, done func([]Result)) {
	b := &batch{Batch: spec, opts: opts, done: done}
	if b.N == 0 {
		p.tr.Schedule(0, func() { b.done(nil) })
		return
	}
	b.results = make([]Result, b.N)
	b.remaining = b.N
	b.interval = time.Duration(float64(time.Second) / b.opts.rate())
	b.seq = p.nextSeq
	p.nextSeq += uint16((b.at(b.N-1).Index + 1) * b.opts.attempts())
	if b.slot = takeSlot(&p.freeBats); b.slot < 0 {
		b.slot = int32(len(p.batches))
		p.batches = append(p.batches, nil)
	}
	p.batches[b.slot] = b
	for i := 0; i < SendWindow && i < b.N; i++ {
		p.tr.ScheduleCall(time.Duration(b.at(i).Index)*b.interval, p.onLaunch, pack32(b.slot, uint32(i)))
	}
}

// launch sends a batch's probe i — at is the batch's slot and i, packed —
// after chaining the launch SendWindow probes further on.
func (p *Prober) launch(at uint64) {
	b, i := p.batches[at>>32], int(uint32(at))
	is := b.at(i)
	if next := i + SendWindow; next < b.N {
		d := time.Duration(b.at(next).Index-is.Index) * b.interval
		p.tr.ScheduleCall(d, p.onLaunch, pack32(b.slot, uint32(next)))
	}
	to, attempts := sink{batch: b, pos: int32(i)}, b.opts.attempts()
	if b.Rounds > 1 {
		width := b.N / b.Rounds
		to.pos = int32(i%width*b.Rounds + i/width)
	}
	// The adaptive timeout is evaluated at send time, so the estimator
	// warms up over the batch.
	oi, op := p.newOp(is.Spec, to, attempts, p.adaptiveTimeout(b.opts))
	op.seq = b.seq + uint16(is.Index*attempts)
	p.sendAttempt(oi)
}

// ID returns the prober's ICMP identifier.
func (p *Prober) ID() uint16 { return p.id }

// Rebase restarts the sequence counter at base and forgets the RTT
// estimate. A campaign rebases every prober at each phase boundary, so
// what a phase sends depends on the phase alone, not on what the prober
// sent before it — which a resumed run restores from its journal rather
// than sends again (DESIGN.md §15). Call it with nothing outstanding.
func (p *Prober) Rebase(base uint16) { p.nextSeq, p.srtt, p.rttvar = base, 0, 0 }

// Expect registers an externally-transmitted probe for matching: the
// reverse-traceroute system sends source-spoofed probes from one vantage
// point whose replies arrive at another. The returned (id, seq) must be
// embedded by the actual sender (see SendSpoofed) only when ok is true.
// On sequence-space exhaustion ok is false, done fires synchronously
// with a SendError result, and the returned identifiers are unusable —
// seq 0 may belong to a live pending probe, so a caller that transmits
// it anyway can resolve the wrong op with a stranger's reply.
func (p *Prober) Expect(spec Spec, timeout time.Duration, done func(Result)) (id, seq uint16, ok bool) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if seq, ok = p.allocSeq(); !ok {
		done(Result{Spec: spec, SentAt: p.tr.Now(), Type: SendError, Err: ErrTooManyOutstanding})
		return p.id, 0, false
	}
	oi, op := p.newOp(spec, sink{done: done}, 1, timeout)
	op.external = true
	p.tr.ScheduleCall(timeout, p.onTimeout, p.addAttempt(oi, seq))
	return p.id, seq, true
}

// SendSpoofed transmits a probe from this prober's vantage point with a
// spoofed source address, carrying identifiers allocated by the prober
// that expects the reply (via Expect). The spoof reaches the network
// exactly as a raw socket would send it.
func (p *Prober) SendSpoofed(spec Spec, spoofedSrc netip.Addr, id, seq uint16) error {
	wire, err := spec.build(p.wire[:0], spoofedSrc, id, seq)
	if err != nil {
		return err
	}
	p.wire = wire
	p.sent++
	p.tr.Inject(wire)
	return nil
}

// allocSeq returns the next free sequence number. It refuses (ok=false)
// once MaxOutstanding probes are pending: with the 16-bit space nearly
// full the scan below would otherwise degenerate — and with it entirely
// full, spin forever.
func (p *Prober) allocSeq() (seq uint16, ok bool) {
	if p.pending.n >= MaxOutstanding {
		return 0, false
	}
	for {
		seq := p.nextSeq
		p.nextSeq++
		if p.pending.get(seq) < 0 {
			return seq, true
		}
	}
}

// receive matches an incoming packet against outstanding probes.
func (p *Prober) receive(at time.Duration, pkt []byte) {
	if err := p.parsed.Decode(pkt); err != nil || !p.parsed.HasICMP {
		p.ignored++
		return
	}
	icmp := &p.parsed.ICMP
	switch {
	case icmp.Type == packet.ICMPEchoReply:
		p.matchEchoReply(at)
	case icmp.Type.IsError():
		p.matchError(at)
	default:
		p.ignored++
	}
}

// matchEchoReply resolves a probe from a direct echo reply.
func (p *Prober) matchEchoReply(at time.Duration) {
	icmp := &p.parsed.ICMP
	if icmp.ID != p.id {
		p.ignored++
		return
	}
	ai := p.pending.get(icmp.Seq)
	if ai < 0 {
		p.ignored++ // unknown, or a duplicate after the op resolved
		return
	}
	pp := &p.atts[ai]
	res := Result{
		Spec:      p.ops[pp.op].spec,
		Seq:       pp.seq,
		SentAt:    pp.sentAt,
		RcvdAt:    at,
		Type:      EchoReply,
		From:      p.parsed.IP.Src,
		ReplyIPID: p.parsed.IP.ID,
	}
	p.extractRR(&p.parsed.IP, &res, false)
	p.complete(ai, &res)
}

// matchError resolves a probe from an ICMP error quoting it.
func (p *Prober) matchError(at time.Duration) {
	icmp := &p.parsed.ICMP
	transport, err := icmp.QuotedDatagram(&p.quoted)
	if err != nil {
		p.ignored++
		return
	}
	var seq uint16
	alt := false // seq+udpSrcPorts shares the quoted source port
	switch p.quoted.Protocol {
	case packet.ProtocolICMP:
		t, id, s, ok := packet.QuotedEcho(transport)
		if !ok || t != packet.ICMPEchoRequest || id != p.id {
			p.ignored++
			return
		}
		seq = s
	case packet.ProtocolUDP:
		sp, _, ok := packet.QuotedUDP(transport)
		if !ok {
			p.ignored++
			return
		}
		s, ok := seqFromUDPSrcPort(sp)
		if !ok {
			p.ignored++
			return
		}
		seq, alt = s, int(s)+udpSrcPorts <= 0xffff
	default:
		p.ignored++
		return
	}
	ai := p.pendingQuoted(seq)
	if ai < 0 && alt {
		ai = p.pendingQuoted(seq + udpSrcPorts)
	}
	if ai < 0 {
		p.ignored++
		return
	}
	pp := &p.atts[ai]
	res := Result{
		Spec:      p.ops[pp.op].spec,
		Seq:       pp.seq,
		SentAt:    pp.sentAt,
		RcvdAt:    at,
		From:      p.parsed.IP.Src,
		ReplyIPID: p.parsed.IP.ID,
	}
	switch {
	case icmp.Type == packet.ICMPTimeExceeded:
		res.Type = TimeExceeded
	case icmp.Type == packet.ICMPDestUnreach && icmp.Code == packet.CodePortUnreachable:
		res.Type = PortUnreachable
	default:
		res.Type = OtherResponse
	}
	p.extractRR(&p.quoted, &res, true)
	p.complete(ai, &res)
}

// pendingQuoted returns the slot of the attempt in flight under seq whose
// probe the quoted header in p.quoted can be, or -1.
func (p *Prober) pendingQuoted(seq uint16) int32 {
	ai := p.pending.get(seq)
	if ai >= 0 && !quotedDstMatches(&p.ops[p.atts[ai].op].spec, p.quoted.Dst) {
		return -1
	}
	return ai
}

// quotedDstMatches reports whether a quoted offending destination is
// consistent with the probe: normally the probed address, but a
// source-routed probe travels addressed to its via hops (and, once
// rewritten, the destination itself).
func quotedDstMatches(spec *Spec, quotedDst netip.Addr) bool {
	if quotedDst == spec.Dst {
		return true
	}
	for _, v := range spec.Via {
		if quotedDst == v {
			return true
		}
	}
	return false
}

// extractRR copies the Record Route contents out of hdr into res.
func (p *Prober) extractRR(hdr *packet.IPv4, res *Result, quoted bool) {
	if found, err := hdr.RecordRouteOption(&p.rr); found && err == nil {
		res.HasRR = true
		res.QuotedRR = quoted
		res.RR = p.keepRR(p.rr.Recorded())
		res.RRTotalSlots = p.rr.NumSlots()
		res.RRFull = p.rr.Full()
	}
}

// Bounds on the chunks Result.RR slices are carved from: chunks double
// from the first size to the last, so a prober that sends a handful of
// probes holds a handful of addresses and one that sends thousands
// allocates once per hundred results.
const (
	rrChunkMin = 64
	rrChunkMax = 1024
)

// keepRR copies hops, which alias decode scratch, into the arena and
// returns the copy with its capacity cut to its length, so appending to
// one result's RR reallocates instead of running into the next result's.
// A retained Result keeps its whole chunk alive.
func (p *Prober) keepRR(hops []netip.Addr) []netip.Addr {
	n := len(hops)
	if n == 0 {
		return nil
	}
	if cap(p.rrArena)-len(p.rrArena) < n {
		p.rrArena = make([]netip.Addr, 0, min(max(2*cap(p.rrArena), rrChunkMin), rrChunkMax))
	}
	off := len(p.rrArena)
	p.rrArena = append(p.rrArena, hops...)
	return p.rrArena[off : off+n : off+n]
}

// complete finalizes a matched probe op; ai is the matched attempt.
func (p *Prober) complete(ai int32, res *Result) {
	pp := &p.atts[ai]
	op := &p.ops[pp.op]
	res.Attempts = op.attempts
	res.MatchedAttempt = pp.attempt
	sentAt, external := pp.sentAt, op.external
	to := p.release(pp.op)
	p.matched++
	if p.tracer != nil {
		p.tracer(res.RcvdAt, "probe.reply", res.Dst, res.Seq, res.MatchedAttempt)
	}
	if !external {
		p.observeRTT(res.RcvdAt - sentAt)
	}
	p.deliver(to, res)
}
