package netsim

import "sync"

// Counter names are interned into small integer IDs at first use, so the
// per-packet hot path (forwarding, link transmission, slow-path
// accounting) bumps a slice slot instead of hashing a string into a map
// millions of times per campaign. The registry is process-global: IDs
// are stable across Networks, which also lets shard replicas of the same
// topology share call-site IDs.
var counterReg = struct {
	sync.Mutex
	ids   map[string]int
	names []string
	local map[string]bool
}{ids: make(map[string]int), local: make(map[string]bool)}

// CounterID interns a counter name, returning its stable ID. Call sites
// on hot paths resolve their ID once (package init or construction) and
// use Network.CountID.
func CounterID(name string) int {
	counterReg.Lock()
	defer counterReg.Unlock()
	if id, ok := counterReg.ids[name]; ok {
		return id
	}
	id := len(counterReg.names)
	counterReg.ids[name] = id
	counterReg.names = append(counterReg.names, name)
	return id
}

// RegisterLocalCounter interns a counter name like CounterID but marks
// it engine-local: its value depends on per-engine evaluation order
// (cache maintenance, memoization hits, lazily observed fault windows)
// rather than counting simulated events, so it is not shard-invariant
// and must stay out of merged cross-shard totals. Observability
// consumers filter on CounterIsLocal.
func RegisterLocalCounter(name string) int {
	id := CounterID(name)
	counterReg.Lock()
	counterReg.local[name] = true
	counterReg.Unlock()
	return id
}

// CounterIsLocal reports whether name was registered as an engine-local
// diagnostic (see RegisterLocalCounter).
func CounterIsLocal(name string) bool {
	counterReg.Lock()
	defer counterReg.Unlock()
	return counterReg.local[name]
}

// counterName resolves an ID back to its name.
func counterName(id int) string {
	counterReg.Lock()
	defer counterReg.Unlock()
	return counterReg.names[id]
}

// lookupCounterID resolves a name without registering it.
func lookupCounterID(name string) (int, bool) {
	counterReg.Lock()
	defer counterReg.Unlock()
	id, ok := counterReg.ids[name]
	return id, ok
}

// counterSnapshot returns the registered names, index = ID.
func counterSnapshot() []string {
	counterReg.Lock()
	defer counterReg.Unlock()
	return append([]string(nil), counterReg.names...)
}

// CounterMark is a checkpoint of the process-global counter registry,
// taken with MarkCounters and restored with Reset. The registry only
// ever grows (interning is how shard replicas of one topology share
// call-site IDs), so long-lived processes that keep registering fresh
// dynamic names — test suites churning through ad-hoc counters,
// repeated topology rebuilds with generation-specific names — would
// otherwise leak interned strings and drift IDs across tests.
//
// Reset truncates the registry back to the checkpoint: IDs below the
// mark (including every pre-interned hot-path ID) keep their meaning,
// names registered after the mark are forgotten, and the next CounterID
// call reuses the freed ID range. Reset must only be called when no
// live Network still counts under post-mark IDs — Networks hold plain
// slices indexed by ID, so stale high IDs would silently alias onto
// newly registered names. It is a scoping tool for tests and
// long-running drivers, not something to call mid-campaign.
type CounterMark int

// MarkCounters checkpoints the current registry size.
func MarkCounters() CounterMark {
	counterReg.Lock()
	defer counterReg.Unlock()
	return CounterMark(len(counterReg.names))
}

// Reset restores the registry to the checkpoint, forgetting every name
// interned after it. See CounterMark for the safety contract.
func (m CounterMark) Reset() {
	counterReg.Lock()
	defer counterReg.Unlock()
	if int(m) >= len(counterReg.names) {
		return
	}
	for _, name := range counterReg.names[m:] {
		delete(counterReg.ids, name)
		delete(counterReg.local, name)
	}
	counterReg.names = counterReg.names[:m]
}

// NumCounters reports how many counter names are currently interned
// (diagnostics; pairs with MarkCounters/Reset in leak tests).
func NumCounters() int {
	counterReg.Lock()
	defer counterReg.Unlock()
	return len(counterReg.names)
}

// counterPad is the number of spare uint64 slots placed on each side of
// a freshly allocated counter slice. Shard replicas bump their counters
// concurrently during parallel campaigns; without padding, counter
// slices allocated back-to-back can land on the same cache line and the
// independent per-shard increments turn into cross-core false sharing.
// Eight slots = 64 bytes = one cache line on every platform we run on.
const counterPad = 8

// newCounters allocates a counter slice sized to the current registry,
// padded with counterPad slots on both sides. The full slice expression
// caps the result at its length, so a later append (registry grown after
// allocation) reallocates instead of overwriting the trailing pad. That
// growth path drops the padding — acceptable: it only triggers for
// counters interned after the network was built, which by construction
// are cold.
func newCounters() []uint64 {
	counterReg.Lock()
	n := len(counterReg.names)
	counterReg.Unlock()
	buf := make([]uint64, counterPad+n+counterPad)
	return buf[counterPad : counterPad+n : counterPad+n]
}

// Pre-interned IDs for the per-packet hot paths.
var (
	cLinkTx         = CounterID("link.tx")
	cLinkLoss       = CounterID("link.loss")
	cRouterFwd      = CounterID("router.fwd")
	cRouterSlowpath = CounterID("router.slowpath")
	cRouterStamped  = CounterID("router.rr.stamped")
	cHostInject     = CounterID("host.inject")
	cHostEchoReply  = CounterID("host.echo.reply")
	cHostUDPUnreach = CounterID("host.udp.unreach")

	// Verdicts a well-formed probe reaches in the ordinary course of a
	// campaign: TTL-limited probes expire, policers and filters drop,
	// unresponsive hosts stay silent. CounterID takes a process-global
	// lock shared by every shard engine and daemon worker, so these are
	// interned here rather than by name per packet.
	cRouterTTLExpired     = CounterID("router.ttl.expired")
	cRouterTimeExceeded   = CounterID("router.icmp.timeexceeded")
	cRouterDropRatelimit  = CounterID("router.drop.ratelimit")
	cRouterDropFilter     = CounterID("router.drop.filter")
	cRouterDropNoRoute    = CounterID("router.drop.noroute")
	cRouterDropErrlimit   = CounterID("router.drop.errlimit")
	cHostDropOptions      = CounterID("host.drop.options")
	cHostDropUnresponsive = CounterID("host.drop.unresponsive")
	cHostDropUDPSilent    = CounterID("host.drop.udpsilent")
	cHostDropMisdelivered = CounterID("host.drop.misdelivered")

	// Route-flip observations happen when a router's memoized route
	// cache notices a withdrawal boundary during a lookup; how many a
	// given engine notices depends on its own traffic, so the counter
	// is engine-local (excluded from merged cross-shard totals).
	cChaosRouteFlip = RegisterLocalCounter("chaos.route.flip")

	// Epoch-churn blackholes are counted per lookup miss; like route
	// flips, the number of lookups that notice a churned prefix is a
	// function of the engine's own traffic, so the counter is local.
	cChaosChurn = RegisterLocalCounter("chaos.route.churn")
)
