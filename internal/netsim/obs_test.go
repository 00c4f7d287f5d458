package netsim

import (
	"net/netip"
	"reflect"
	"testing"
	"time"
)

// traceRec is one captured TraceFunc invocation.
type traceRec struct {
	at    time.Duration
	node  string
	event string
	src   netip.Addr
	dst   netip.Addr
}

// runChainPingRR runs one ping-RR through a 3-router chain, optionally
// with a tracer and per-node counters, and returns the chain.
func runChainPingRR(t *testing.T, tracer TraceFunc, perNode bool) *chain {
	t.Helper()
	c := buildChain(3, nil, DefaultHostBehavior())
	if tracer != nil {
		c.net.SetTracer(tracer)
	}
	if perNode {
		c.net.EnableNodeCounters()
	}
	c.vp.Inject(makePingRR(t, a(vpAddrStr), a(destAddrStr), 7, 1, 64, 9))
	c.net.Engine().Run()
	return c
}

// TestTracerDoesNotPerturbRun is the observability contract: attaching
// a tracer (and per-node attribution) must leave the simulation
// byte-identical — same replies, same timing, same counters.
func TestTracerDoesNotPerturbRun(t *testing.T) {
	plain := runChainPingRR(t, nil, false)
	traced := runChainPingRR(t, func(time.Duration, string, string, netip.Addr, netip.Addr) {}, true)

	if got, want := len(traced.replies), len(plain.replies); got != want {
		t.Fatalf("traced run saw %d replies, plain %d", got, want)
	}
	for i := range plain.replies {
		if traced.replies[i].at != plain.replies[i].at {
			t.Errorf("reply %d at %v traced vs %v plain", i, traced.replies[i].at, plain.replies[i].at)
		}
		if !reflect.DeepEqual(traced.replies[i].raw, plain.replies[i].raw) {
			t.Errorf("reply %d bytes differ under tracing", i)
		}
	}
	if got, want := traced.net.Counters(), plain.net.Counters(); !reflect.DeepEqual(got, want) {
		t.Errorf("counters differ under tracing:\n traced %v\n plain  %v", got, want)
	}
	if traced.net.Now() != plain.net.Now() {
		t.Errorf("clock differs: traced %v plain %v", traced.net.Now(), plain.net.Now())
	}
}

// TestTraceEventsEmitted checks the forward path's event stream: every
// router admits the options packet to the slow path and stamps it, the
// destination replies, and virtual timestamps never run backwards.
func TestTraceEventsEmitted(t *testing.T) {
	var evs []traceRec
	runChainPingRR(t, func(at time.Duration, node, event string, src, dst netip.Addr) {
		evs = append(evs, traceRec{at, node, event, src, dst})
	}, false)

	if len(evs) == 0 {
		t.Fatal("no trace events")
	}
	count := make(map[string]int)
	var last time.Duration
	for i, e := range evs {
		count[e.event]++
		if e.at < last {
			t.Fatalf("event %d (%s) at %v precedes previous at %v", i, e.event, e.at, last)
		}
		last = e.at
	}
	// Forward path: 3 slow-path admissions and 3 stamps; reply path: the
	// copied option is stamped by the 3 routers on the way back.
	if count["router.slowpath"] != 6 || count["router.rr.stamped"] != 6 {
		t.Errorf("slowpath=%d stamped=%d, want 6 and 6 (forward + reply)",
			count["router.slowpath"], count["router.rr.stamped"])
	}
	if count["host.echo.reply"] != 1 {
		t.Errorf("host.echo.reply=%d, want 1", count["host.echo.reply"])
	}
	// The first event belongs to the first router and carries the
	// decoded probe addresses.
	if evs[0].node != "r0" || evs[0].src != a(vpAddrStr) || evs[0].dst != a(destAddrStr) {
		t.Errorf("first event = %+v, want r0 observing vp→dest", evs[0])
	}
}

// TestNodeCountersAttribution checks that per-node counters, when
// enabled, partition the node-emitted totals exactly.
func TestNodeCountersAttribution(t *testing.T) {
	c := runChainPingRR(t, nil, true)
	nodes := c.net.NodeCounters()
	if nodes == nil {
		t.Fatal("NodeCounters() nil after EnableNodeCounters")
	}
	total := c.net.CounterMap()
	for _, name := range []string{"router.rr.stamped", "router.fwd", "router.slowpath", "host.echo.reply"} {
		var sum uint64
		for _, nc := range nodes {
			sum += nc[name]
		}
		if sum != total[name] {
			t.Errorf("%s: per-node sum %d != network total %d", name, sum, total[name])
		}
	}
	// Each chain router stamped once forward and once on the reply.
	for _, r := range []string{"r0", "r1", "r2"} {
		if got := nodes[r]["router.rr.stamped"]; got != 2 {
			t.Errorf("%s stamped %d, want 2", r, got)
		}
	}
	if got := nodes["dest"]["host.echo.reply"]; got != 1 {
		t.Errorf("dest echo replies = %d, want 1", got)
	}
}

// TestNodeCountersDisabledByDefault: no attribution unless asked.
func TestNodeCountersDisabledByDefault(t *testing.T) {
	c := runChainPingRR(t, nil, false)
	if c.net.NodeCountersEnabled() || c.net.NodeCounters() != nil {
		t.Fatal("per-node counters on without EnableNodeCounters")
	}
}

// BenchmarkForwardObservability measures the chain forward path with
// observability off (the default every campaign pays), with a tracer
// attached, and with per-node attribution — the allocation guard for
// the zero-overhead-when-disabled contract, and since the forward path
// went wire-level a stronger one: a ping-RR round trip (three stamping
// hops out, the host's stamped echo, three hops back) allocates nothing
// at all, with or without a tracer or per-node attribution.
func BenchmarkForwardObservability(b *testing.B) {
	run := func(b *testing.B, tracer TraceFunc, perNode bool) {
		c := buildChain(3, nil, DefaultHostBehavior())
		if tracer != nil {
			c.net.SetTracer(tracer)
		}
		if perNode {
			c.net.EnableNodeCounters()
		}
		c.vp.SetSniffer(nil)
		hdr := makePingRR(b, a(vpAddrStr), a(destAddrStr), 7, 1, 64, 9)
		roundTrip := func() {
			c.vp.Inject(hdr)
			c.net.Engine().Run()
		}
		roundTrip() // warms the serialization pool and route memos
		if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
			b.Fatalf("ping-RR round trip allocates %v times, want 0", allocs)
		}
		if got := c.net.Counter("router.rr.stamped"); got != 6*102 {
			b.Fatalf("router.rr.stamped = %d, want %d: the round trips did not stamp", got, 6*102)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip()
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil, false) })
	b.Run("tracer", func(b *testing.B) {
		run(b, func(time.Duration, string, string, netip.Addr, netip.Addr) {}, false)
	})
	b.Run("per-node", func(b *testing.B) { run(b, nil, true) })
}
