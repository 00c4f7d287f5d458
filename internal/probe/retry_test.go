package probe

import (
	"net/netip"
	"testing"
	"time"

	"recordroute/internal/netsim"
	"recordroute/internal/packet"
)

// scriptedTransport is a Transport whose network is the test itself:
// every Inject is handed to onSend, which decides whether and when a
// reply comes back. Timers run on a bare netsim engine, so virtual time
// is exact and the prober's timeout/retransmit schedule is observable.
type scriptedTransport struct {
	eng    *netsim.Engine
	src    netip.Addr
	recv   func(at time.Duration, pkt []byte)
	onSend func(wire []byte)
}

func newScriptedTransport() *scriptedTransport {
	return &scriptedTransport{eng: netsim.NewEngine(), src: netip.MustParseAddr("192.0.2.1")}
}

func (s *scriptedTransport) LocalAddr() netip.Addr { return s.src }
func (s *scriptedTransport) Inject(pkt []byte) {
	if s.onSend != nil {
		s.onSend(append([]byte(nil), pkt...))
	}
}
func (s *scriptedTransport) SetReceiver(fn func(at time.Duration, pkt []byte)) { s.recv = fn }
func (s *scriptedTransport) Schedule(d time.Duration, fn func())               { s.eng.Schedule(d, fn) }
func (s *scriptedTransport) ScheduleCall(d time.Duration, fn func(uint64), arg uint64) {
	s.eng.ScheduleCall(d, fn, arg)
}
func (s *scriptedTransport) Now() time.Duration { return s.eng.Now() }

// deliver feeds a packet to the prober after d of virtual time.
func (s *scriptedTransport) deliver(d time.Duration, pkt []byte) {
	s.eng.Schedule(d, func() { s.recv(s.eng.Now(), pkt) })
}

// echoReplyFor builds the destination's echo reply to a captured echo
// request probe.
func echoReplyFor(t *testing.T, wire []byte) []byte {
	t.Helper()
	var ip packet.IPv4
	payload, err := ip.Decode(wire)
	if err != nil {
		t.Fatalf("decode probe: %v", err)
	}
	var ic packet.ICMP
	if err := ic.Decode(payload); err != nil {
		t.Fatalf("decode probe ICMP: %v", err)
	}
	hdr := packet.IPv4{TTL: 64, ID: 4242, Protocol: packet.ProtocolICMP, Src: ip.Dst, Dst: ip.Src}
	out, err := hdr.Marshal(ic.EchoReply().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var retryDst = netip.MustParseAddr("198.51.100.9")

// startRetrying launches one probe through the batch path (the path
// that honors Retries/Adaptive) and returns a pointer that is filled
// with the result.
func startRetrying(p *Prober, opts Options) *[]Result {
	var got []Result
	out := &got
	p.StartBatch([]Spec{{Dst: retryDst, Kind: Ping}}, opts, func(rs []Result) { *out = rs })
	return out
}

func TestRetransmitAfterTimeoutMatchesSecondAttempt(t *testing.T) {
	tr := newScriptedTransport()
	p := New(tr, 0x1111)
	sends := 0
	tr.onSend = func(wire []byte) {
		sends++
		if sends == 1 {
			return // first attempt vanishes
		}
		tr.deliver(10*time.Millisecond, echoReplyFor(t, wire))
	}
	got := startRetrying(p, Options{Retries: 2, Timeout: time.Second, Rate: 100})
	tr.eng.Run()

	if *got == nil {
		t.Fatal("batch never completed")
	}
	r := (*got)[0]
	if r.Type != EchoReply || r.Attempts != 2 || r.MatchedAttempt != 2 {
		t.Errorf("result = %v attempts=%d matched=%d, want echo-reply 2/2", r.Type, r.Attempts, r.MatchedAttempt)
	}
	// The RTT is the matched attempt's, not time since the first send.
	if r.RTT() != 10*time.Millisecond {
		t.Errorf("RTT = %v, want 10ms", r.RTT())
	}
	sent, matched, timedOut, _ := p.Stats()
	if sent != 2 || matched != 1 || timedOut != 0 || p.Retransmits() != 1 {
		t.Errorf("stats sent=%d matched=%d timedOut=%d retransmits=%d", sent, matched, timedOut, p.Retransmits())
	}
}

func TestLateReplyToSupersededAttemptStillMatches(t *testing.T) {
	tr := newScriptedTransport()
	p := New(tr, 0x1112)
	sends := 0
	tr.onSend = func(wire []byte) {
		sends++
		if sends == 1 {
			// The first attempt's reply arrives 500ms after the 1s
			// timeout already triggered a retransmission.
			tr.deliver(1500*time.Millisecond, echoReplyFor(t, wire))
			return
		}
		tr.deliver(10*time.Millisecond, echoReplyFor(t, wire))
	}
	got := startRetrying(p, Options{Retries: 3, Timeout: time.Second, Rate: 100})
	tr.eng.Run()

	r := (*got)[0]
	// Attempt 2's fast reply (at 1s+10ms) wins; attempt 1's late reply
	// (1.5s) must be recognized as a duplicate of a resolved op.
	if r.Type != EchoReply || r.Attempts != 2 || r.MatchedAttempt != 2 {
		t.Errorf("result = %v attempts=%d matched=%d, want echo-reply 2/2", r.Type, r.Attempts, r.MatchedAttempt)
	}
	_, matched, _, ignored := p.Stats()
	if matched != 1 || ignored != 1 {
		t.Errorf("matched=%d ignored=%d, want 1 and 1 (late duplicate deduped)", matched, ignored)
	}
}

func TestDuplicateRepliesAfterRetransmitDeduped(t *testing.T) {
	tr := newScriptedTransport()
	p := New(tr, 0x1113)
	sends := 0
	tr.onSend = func(wire []byte) {
		sends++
		if sends == 1 {
			// Slow path: the first attempt is answered only after its
			// timeout, racing the second attempt's reply.
			tr.deliver(1100*time.Millisecond, echoReplyFor(t, wire))
			return
		}
		// The retransmission's reply is duplicated in flight.
		reply := echoReplyFor(t, wire)
		tr.deliver(20*time.Millisecond, reply)
		tr.deliver(30*time.Millisecond, reply)
	}
	got := startRetrying(p, Options{Retries: 1, Timeout: time.Second, Rate: 100})
	tr.eng.Run()

	r := (*got)[0]
	if r.Type != EchoReply || r.MatchedAttempt != 2 {
		t.Errorf("result = %v matched=%d, want echo-reply on attempt 2", r.Type, r.MatchedAttempt)
	}
	_, matched, _, ignored := p.Stats()
	if matched != 1 || ignored != 2 {
		t.Errorf("matched=%d ignored=%d, want exactly one match, two dropped duplicates", matched, ignored)
	}
}

func TestReplyInSameTickAsTimeoutDoesNotDoubleResolve(t *testing.T) {
	for _, retries := range []int{0, 1} {
		tr := newScriptedTransport()
		p := New(tr, 0x1114)
		sends, dones := 0, 0
		tr.onSend = func(wire []byte) {
			sends++
			if sends == 1 {
				// Reply lands at exactly t=1s, the same engine tick as the
				// timeout. Scheduling it from a deferred event gives it a
				// later FIFO sequence than the timeout timer (as in the
				// simulator, where the last delivery hop is scheduled long
				// after the probe's timer), so the timeout runs first.
				reply := echoReplyFor(t, wire)
				tr.eng.Schedule(0, func() { tr.deliver(time.Second, reply) })
			}
		}
		var last Result
		p.StartBatch([]Spec{{Dst: retryDst, Kind: Ping}},
			Options{Retries: retries, Timeout: time.Second, Rate: 100},
			func(rs []Result) { dones++; last = rs[0] })
		tr.eng.Run()

		if dones != 1 {
			t.Fatalf("retries=%d: done called %d times", retries, dones)
		}
		if retries == 0 {
			// Single-shot: the timeout resolved the op; the same-tick
			// reply must be ignored, not double-complete it.
			if last.Type != NoResponse {
				t.Errorf("retries=0: result %v, want timeout", last.Type)
			}
			if _, _, _, ignored := p.Stats(); ignored != 1 {
				t.Errorf("retries=0: ignored=%d, want 1", ignored)
			}
		} else {
			// With budget left, the timeout retransmitted first — but the
			// attempt-1 entry is still live, so the same-tick reply
			// matches attempt 1.
			if last.Type != EchoReply || last.MatchedAttempt != 1 || last.Attempts != 2 {
				t.Errorf("retries=1: result %v matched=%d attempts=%d, want echo-reply 1/2",
					last.Type, last.MatchedAttempt, last.Attempts)
			}
		}
	}
}

func TestExponentialBackoffSchedule(t *testing.T) {
	tr := newScriptedTransport()
	p := New(tr, 0x1115)
	var sentAt []time.Duration
	tr.onSend = func([]byte) { sentAt = append(sentAt, tr.eng.Now()) }
	got := startRetrying(p, Options{Retries: 2, Timeout: time.Second, Rate: 100})
	tr.eng.Run()

	want := []time.Duration{0, time.Second, 3 * time.Second} // 1s, then 2s backoff
	if len(sentAt) != len(want) {
		t.Fatalf("sends at %v, want %v", sentAt, want)
	}
	for i := range want {
		if sentAt[i] != want[i] {
			t.Errorf("attempt %d at %v, want %v", i+1, sentAt[i], want[i])
		}
	}
	r := (*got)[0]
	if r.Type != NoResponse || r.Attempts != 3 || r.SentAt != 0 {
		t.Errorf("result = %v attempts=%d sentAt=%v, want timeout after 3 attempts, SentAt of first", r.Type, r.Attempts, r.SentAt)
	}
	// Final timeout fires 4s after the last attempt.
	if now := tr.eng.Now(); now != 7*time.Second {
		t.Errorf("virtual end time %v, want 7s", now)
	}
	if _, _, timedOut, _ := p.Stats(); timedOut != 1 {
		t.Errorf("timedOut = %d, want 1 (per op, not per attempt)", timedOut)
	}
}

func TestAdaptiveTimeoutTracksRTTEWMA(t *testing.T) {
	tr := newScriptedTransport()
	p := New(tr, 0x1116)
	var sentAt []time.Duration
	sends := 0
	tr.onSend = func(wire []byte) {
		sends++
		sentAt = append(sentAt, tr.eng.Now())
		if sends == 1 {
			tr.deliver(100*time.Millisecond, echoReplyFor(t, wire)) // primes the EWMA
		}
	}
	specs := []Spec{{Dst: retryDst, Kind: Ping}, {Dst: retryDst, Kind: Ping}}
	var got []Result
	// Rate 5 → probe B sent at 200ms, after probe A's reply primed the
	// estimator: srtt=100ms, rttvar=50ms → RTO 300ms.
	p.StartBatch(specs, Options{Retries: 1, Timeout: 2 * time.Second, Rate: 5, Adaptive: true},
		func(rs []Result) { got = rs })
	tr.eng.Run()

	if srtt, rttvar := p.RTTEstimate(); srtt != 100*time.Millisecond || rttvar != 50*time.Millisecond {
		t.Errorf("EWMA = (%v, %v), want (100ms, 50ms)", srtt, rttvar)
	}
	want := []time.Duration{0, 200 * time.Millisecond, 500 * time.Millisecond}
	if len(sentAt) != 3 {
		t.Fatalf("sends at %v, want %v", sentAt, want)
	}
	for i := range want {
		if sentAt[i] != want[i] {
			t.Errorf("send %d at %v, want %v (adaptive 300ms timeout)", i, sentAt[i], want[i])
		}
	}
	if got[1].Type != NoResponse || got[1].Attempts != 2 {
		t.Errorf("probe B = %v attempts=%d, want timeout after 2 attempts", got[1].Type, got[1].Attempts)
	}
}

func TestAllocSeqCapFailsExplicitly(t *testing.T) {
	tr := newScriptedTransport()
	p := New(tr, 0x1117)
	// Saturate the sequence space with expectations that never resolve
	// within the test horizon.
	for i := 0; i < MaxOutstanding; i++ {
		p.Expect(Spec{Dst: retryDst, Kind: Ping}, time.Hour, func(Result) {})
	}
	if p.Outstanding() != MaxOutstanding {
		t.Fatalf("outstanding = %d, want %d", p.Outstanding(), MaxOutstanding)
	}

	var res *Result
	p.StartOne(Spec{Dst: retryDst, Kind: Ping}, time.Second, func(r Result) { res = &r })
	if res == nil {
		t.Fatal("done not called synchronously on seq exhaustion")
	}
	if res.Type != SendError || res.Err != ErrTooManyOutstanding {
		t.Errorf("result = %v err=%v, want SendError/ErrTooManyOutstanding", res.Type, res.Err)
	}
	if res.Responded() {
		t.Error("SendError result claims Responded()")
	}
	if p.Outstanding() != MaxOutstanding {
		t.Errorf("failed probe leaked a pending entry: %d", p.Outstanding())
	}

	// Expect refuses the same way, and says so via ok.
	var eres *Result
	_, seq, ok := p.Expect(Spec{Dst: retryDst, Kind: Ping}, time.Second, func(r Result) { eres = &r })
	if ok || seq != 0 || eres == nil || eres.Type != SendError {
		t.Errorf("Expect under cap: ok=%v seq=%d res=%+v, want refusal with immediate SendError", ok, seq, eres)
	}
}

// TestStartBatchHeapDepthBounded pins the windowed batch schedule: a
// batch of N specs enqueues at most SendWindow send events (the old
// upfront schedule put all N in the heap at t≈0 — ~100k entries per VP
// batch at the large scale profile), while pacing stays exact: probe i
// leaves at exactly i*interval, in spec order.
func TestStartBatchHeapDepthBounded(t *testing.T) {
	tr := newScriptedTransport()
	p := New(tr, 0x111b)
	var sentAt []time.Duration
	tr.onSend = func([]byte) { sentAt = append(sentAt, tr.eng.Now()) }
	const n = 4 * SendWindow
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{Dst: retryDst, Kind: Ping}
	}
	var got []Result
	p.StartBatch(specs, Options{Rate: 1000, Timeout: time.Millisecond}, func(rs []Result) { got = rs })
	if pend := tr.eng.Pending(); pend > SendWindow {
		t.Fatalf("StartBatch enqueued %d events upfront, want <= SendWindow (%d)", pend, SendWindow)
	}
	tr.eng.Run()

	if len(got) != n {
		t.Fatalf("batch returned %d results, want %d", len(got), n)
	}
	interval := time.Duration(float64(time.Second) / 1000)
	if len(sentAt) != n {
		t.Fatalf("%d transmissions, want %d", len(sentAt), n)
	}
	for i, at := range sentAt {
		if want := time.Duration(i) * interval; at != want {
			t.Fatalf("probe %d sent at %v, want %v", i, at, want)
		}
	}
	for i, r := range got {
		if want := time.Duration(i) * interval; r.SentAt != want {
			t.Errorf("result %d SentAt=%v, want %v (spec order broken)", i, r.SentAt, want)
			break
		}
	}
}

// TestExpectExhaustionNoCrossOpDelivery is the regression test for the
// sequence-exhaustion aliasing bug: Expect used to return (p.id, 0)
// after a SendError, identifiers that alias whatever live probe holds
// seq 0 — a caller embedding them via SendSpoofed would elicit a reply
// that resolves the wrong op. The fixed contract reports the refusal
// (ok=false) so callers never transmit the aliased identifiers, and the
// live seq-0 op keeps its registration and resolves only with its own
// reply.
func TestExpectExhaustionNoCrossOpDelivery(t *testing.T) {
	tr := newScriptedTransport()
	p := New(tr, 0x111a)

	// The live op: the prober's first allocation takes seq 0, exactly the
	// number the buggy Expect used to hand out after a refusal.
	liveDst := netip.MustParseAddr("198.51.100.10")
	var liveWire []byte
	tr.onSend = func(wire []byte) { liveWire = wire }
	var live *Result
	p.StartOne(Spec{Dst: liveDst, Kind: Ping}, time.Hour, func(r Result) { live = &r })
	if liveWire == nil {
		t.Fatal("live probe was not transmitted")
	}

	// Fill the remaining sequence space with expectations that never
	// resolve within the test horizon.
	for p.Outstanding() < MaxOutstanding {
		p.Expect(Spec{Dst: retryDst, Kind: Ping}, time.Hour, func(Result) {})
	}

	// One more registration must be refused outright.
	otherDst := netip.MustParseAddr("203.0.113.77")
	refusals := 0
	id, seq, ok := p.Expect(Spec{Dst: otherDst, Kind: PingRR}, time.Hour, func(r Result) {
		refusals++
		if r.Type != SendError || r.Err != ErrTooManyOutstanding {
			t.Errorf("refused expectation resolved as %v err=%v, want SendError", r.Type, r.Err)
		}
	})
	if ok {
		t.Fatal("Expect granted a registration with the sequence space full")
	}
	if refusals != 1 {
		t.Fatalf("refusal callback fired %d times, want 1", refusals)
	}
	if id != p.ID() || seq != 0 {
		t.Fatalf("refused Expect returned (id=%#x, seq=%d)", id, seq)
	}
	if p.Outstanding() != MaxOutstanding {
		t.Errorf("refused expectation leaked a pending entry: %d", p.Outstanding())
	}

	// A caller honoring ok transmits nothing for the refused spec, so the
	// only traffic is the live probe's own reply — which must resolve the
	// live op with the live destination, proving seq 0 still belongs to it.
	tr.deliver(10*time.Millisecond, echoReplyFor(t, liveWire))
	tr.eng.RunUntil(20 * time.Millisecond)
	if live == nil {
		t.Fatal("live seq-0 probe never resolved")
	}
	if live.Type != EchoReply || live.From != liveDst || live.Seq != 0 {
		t.Errorf("live op resolved as %v from %v seq=%d, want its own reply from %v at seq 0",
			live.Type, live.From, live.Seq, liveDst)
	}
	if refusals != 1 {
		t.Errorf("refused expectation received a delivery after its SendError (%d callbacks)", refusals)
	}
}

func TestStartBatchMalformedSpecMidBatch(t *testing.T) {
	tr := newScriptedTransport()
	p := New(tr, 0x1118)
	tr.onSend = func(wire []byte) { tr.deliver(5*time.Millisecond, echoReplyFor(t, wire)) }
	specs := []Spec{
		{Dst: retryDst, Kind: Ping},
		{Dst: retryDst, Kind: PingLSRR}, // no Via hops: cannot serialize
		{Dst: retryDst, Kind: Ping},
	}
	var got []Result
	p.StartBatch(specs, Options{Rate: 100, Timeout: time.Second, Retries: 1}, func(rs []Result) { got = rs })
	tr.eng.Run()

	if got == nil {
		t.Fatal("batch with malformed middle spec never completed")
	}
	if got[0].Type != EchoReply || got[2].Type != EchoReply {
		t.Errorf("good specs = %v / %v, want echo replies", got[0].Type, got[2].Type)
	}
	if got[1].Type != SendError || got[1].Err == nil || got[1].Attempts != 0 {
		t.Errorf("malformed spec = %v err=%v attempts=%d, want SendError with cause, 0 attempts",
			got[1].Type, got[1].Err, got[1].Attempts)
	}
}
