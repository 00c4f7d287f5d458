package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"math/rand/v2"
)

// Fault injection ("chaos") layer.
//
// Faults are data, not events: a FaultPlan compiles a FaultConfig into
// per-interface and per-router fault state whose activity is a pure
// function of the engine clock (faultWindow below). Nothing is pushed
// onto the event queue, so Engine.Run still drains to quiescence after
// each probing phase instead of fast-forwarding through the fault
// schedule, and a later phase starting at a later virtual time simply
// observes whichever windows are open then.
//
// Per-packet draws (loss, jitter, duplication) are content-keyed — a
// hash of the afflicted interface, the draw site, and the packet's
// shard-invariant identity — rather than pulled from a sequential RNG
// stream. A sequential stream interleaves draws across all traffic
// sharing the network, so splitting VPs over shard replicas would
// reshuffle every decision; the content key makes each packet's fate a
// function of the packet alone, which is what extends the K=1 vs K=3
// determinism contract (DESIGN.md §6) to fault-enabled workloads. The
// legacy Iface.SetLoss keeps its sequential stream and stays outside
// that contract.

// faultWindow describes when a fault is active as a pure function of
// virtual time: active during [offset+k*period, offset+k*period+duty)
// for every cycle k, or during the single window [offset, offset+duty)
// when period is zero (one-shot). A zero duty never activates.
type faultWindow struct {
	offset time.Duration
	period time.Duration // 0 = one-shot
	duty   time.Duration // 0 = never active
}

func (w faultWindow) active(now time.Duration) bool {
	if w.duty <= 0 || now < w.offset {
		return false
	}
	e := now - w.offset
	if w.period > 0 {
		e %= w.period
	}
	return e < w.duty
}

// flips counts the window's state transitions at times <= now. Routers
// use it to detect that a withdrawal boundary was crossed since the
// last route lookup and the memoized routes went stale.
func (w faultWindow) flips(now time.Duration) int {
	if w.duty <= 0 || now < w.offset {
		return 0
	}
	e := now - w.offset
	if w.period <= 0 {
		if e < w.duty {
			return 1
		}
		return 2
	}
	n := 2*int(e/w.period) + 1
	if e%w.period >= w.duty {
		n++
	}
	return n
}

// linkFaults is the chaos state attached to one interface (one link
// direction). The down window is shared by both directions of a
// flapping link; the draw salt is per-direction.
type linkFaults struct {
	salt      uint64
	down      faultWindow
	loss      float64
	jitterMax time.Duration
	dup       float64
}

// routerFaults is the chaos state attached to one router: plane state.
// What a router has seen of it (withdrawal flips so far) is routerState's.
type routerFaults struct {
	offline  faultWindow
	suppress faultWindow
	withdraw faultWindow
	prefix   netip.Prefix

	// Long-horizon churn: each fault epoch (Network.SetFaultEpoch, the
	// coarse virtual clock of a recurring campaign), the churned prefix
	// is independently withdrawn with probability churnProb. The draw is
	// keyed by (churnSeed, epoch) alone — no sequential stream — so a
	// router's churn fate in epoch e is the same on every shard replica
	// and across daemon restarts.
	churnSeed   uint64
	churnProb   float64
	churnPrefix netip.Prefix
}

// churned reports whether the router's churn prefix is withdrawn in the
// given fault epoch — a pure function of (seed, epoch).
func (f *routerFaults) churned(epoch int) bool {
	if f.churnProb <= 0 || !f.churnPrefix.IsValid() {
		return false
	}
	h := chaosMix(f.churnSeed, uint64(epoch)*0x9e3779b97f4a7c15)
	return float64(h>>11)/float64(1<<53) < f.churnProb
}

// Draw-site discriminators so one packet's loss, jitter, and
// duplication draws are independent.
const (
	chaosSaltLoss uint64 = iota + 1
	chaosSaltJitter
	chaosSaltDup
)

func chaosMix(h, v uint64) uint64 {
	h ^= v
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func chaosBE32(b []byte) uint64 {
	return uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
}

// chaosDraw returns a uniform draw in [0, 1) keyed by (salt, kind) and
// the packet's shard-invariant identity: TTL, protocol, source,
// destination, and the transport payload (which carries the ICMP id/seq
// or UDP ports distinguishing probe attempts). The IPv4 header beyond
// the fixed fields is deliberately excluded: leaving the IP ID of
// router/host-originated replies out of the key keeps every packet's
// fault fate independent of the IP-ID model (ipidAt), so a change to
// that model changes no fault plan's outcome.
func chaosDraw(salt, kind uint64, pkt []byte) float64 {
	h := chaosMix(salt, kind*0x9e3779b97f4a7c15)
	if len(pkt) >= 20 {
		h = chaosMix(h, uint64(pkt[8])<<40|uint64(pkt[9])<<32|chaosBE32(pkt[12:16]))
		h = chaosMix(h, chaosBE32(pkt[16:20]))
		ihl := int(pkt[0]&0xf) * 4
		if ihl < 20 || ihl > len(pkt) {
			ihl = 20
		}
		for p := pkt[ihl:]; len(p) > 0; {
			var w uint64
			nb := len(p)
			if nb > 8 {
				nb = 8
			}
			for j := 0; j < nb; j++ {
				w = w<<8 | uint64(p[j])
			}
			h = chaosMix(h, w)
			p = p[nb:]
		}
	}
	return float64(h>>11) / float64(1<<53)
}

// ifaceSalt derives a per-direction draw salt from the plan seed and
// the packed interface address, so the two directions of one link (and
// every link of the topology) draw independently.
func ifaceSalt(seed uint64, addr uint32) uint64 {
	return chaosMix(chaosMix(seed, uint64(addr)), 0x2545f4914f6cdd1d)
}

// Chaos counters (cold-path ones use Count directly).
var (
	cChaosLinkDown = CounterID("chaos.link.down")
	cChaosLoss     = CounterID("chaos.link.loss")
	cChaosDup      = CounterID("chaos.link.dup")
	cChaosOffline  = CounterID("chaos.router.offline")
	cChaosSuppress = CounterID("chaos.icmp.suppressed")
)

// FaultConfig parameterizes a deterministic fault-injection plan. The
// zero value injects nothing. Every fault class is gated by its own
// probability/fraction field, so scenarios can mix and match; all
// randomness derives from Seed and the deterministic registration
// order, making the plan — like the topology — part of the seed.
type FaultConfig struct {
	// Seed drives every affliction draw and window phase.
	Seed uint64

	// LossProb is the per-packet, per-direction drop probability on
	// afflicted links; LossFrac is the fraction of registered links
	// afflicted (<=0 means all, when LossProb > 0).
	LossProb float64
	LossFrac float64
	// JitterMax adds up to this much extra one-way delay per packet on
	// afflicted links (JitterFrac as above). Jittered links reorder:
	// back-to-back packets can arrive swapped.
	JitterMax  time.Duration
	JitterFrac float64
	// DupProb duplicates packets on afflicted links (DupFrac as above);
	// the copy trails the original by half the link delay.
	DupProb float64
	DupFrac float64

	// FlapFrac of links flap: down FlapDown out of every FlapPeriod,
	// with a per-link phase drawn from the seed.
	FlapFrac   float64
	FlapPeriod time.Duration // default 40s
	FlapDown   time.Duration // default 4s

	// OutageFrac of routers suffer one outage of OutageFor, starting at
	// a per-router time drawn uniformly from [0, OutageSpread). An
	// offline router drops everything it receives.
	OutageFrac   float64
	OutageSpread time.Duration // default 60s
	OutageFor    time.Duration // default 15s

	// SuppressFrac of routers periodically stop generating ICMP errors
	// (Time Exceeded): SuppressFor out of every SuppressPeriod.
	SuppressFrac   float64
	SuppressPeriod time.Duration // default 45s
	SuppressFor    time.Duration // default 10s

	// WithdrawFrac of registered (router, prefix) candidates transiently
	// withdraw the prefix: WithdrawFor out of every WithdrawPeriod the
	// router blackholes the prefix, invalidating its memoized routes at
	// each boundary.
	WithdrawFrac   float64
	WithdrawPeriod time.Duration // default 60s
	WithdrawFor    time.Duration // default 8s

	// Long-horizon route churn across fault epochs (recurring-campaign
	// cadence, see Network.SetFaultEpoch): ChurnFrac of registered
	// (router, prefix) candidates join the churn pool (<=0 means all,
	// when ChurnProb > 0), and each pooled prefix is independently
	// withdrawn for a whole epoch with probability ChurnProb. Unlike the
	// transient withdrawals above, churn is constant within an epoch — a
	// pure function of (seed, epoch), not of the packet-level clock — so
	// one epoch's render is byte-reproducible at any shard count while
	// consecutive epochs see routes appear and disappear.
	ChurnFrac float64
	ChurnProb float64
}

// randDur draws uniformly from [0, max).
func randDur(rng *rand.Rand, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rng.Int64N(int64(max)))
}

func defDur(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

func defFrac(f float64) float64 {
	if f <= 0 {
		return 1
	}
	return f
}

// FaultSummary reports what a plan installed, for logs and renders.
type FaultSummary struct {
	Links, Routers                                 int // registered candidates
	LossyLinks, JitterLinks, DupLinks, FlapLinks   int
	OfflineRouters, SuppressRouters, WithdrawnPfxs int
	ChurnedPfxs                                    int // prefixes in the epoch-churn pool
}

// String renders the summary as a single log-friendly line.
func (s FaultSummary) String() string {
	return fmt.Sprintf("links=%d lossy=%d jitter=%d dup=%d flapping=%d routers=%d outages=%d suppressed=%d withdrawals=%d churned=%d",
		s.Links, s.LossyLinks, s.JitterLinks, s.DupLinks, s.FlapLinks,
		s.Routers, s.OfflineRouters, s.SuppressRouters, s.WithdrawnPfxs, s.ChurnedPfxs)
}

// FaultPlan compiles a FaultConfig against registered fault targets.
// Register routers (with their links) and withdrawal candidates of one
// network in a deterministic order (topology build order), then Install:
// the same config over the same registration sequence installs the same
// fault state, which is how every build of a topology gets one weather.
type FaultPlan struct {
	cfg      FaultConfig
	net      *Network
	links    []IfaceID        // one side per link; the other side reached via peer
	seen     map[IfaceID]bool // by the lower id of a link's two
	routers  []int32
	pfxOwner []int32
	pfxs     []netip.Prefix
}

// NewFaultPlan returns an empty plan for cfg.
func NewFaultPlan(cfg FaultConfig) *FaultPlan {
	return &FaultPlan{cfg: cfg, seen: make(map[IfaceID]bool)}
}

// addLink registers the link an interface belongs to as a fault
// candidate. The two directions are deduplicated and afflicted together
// (a flap takes the whole link down).
func (p *FaultPlan) addLink(id IfaceID) {
	if l := min(id, p.net.p.ifaces[id].peer); !p.seen[l] {
		p.seen[l] = true
		p.links = append(p.links, id)
	}
}

// AddRouter registers r as an outage/suppression candidate, and the
// links of its interfaces in attachment order.
func (p *FaultPlan) AddRouter(r *Router) {
	p.net = r.net
	p.routers = append(p.routers, r.idx)
	for _, id := range r.rec().ifaces {
		p.addLink(id)
	}
}

// AddWithdrawal registers prefix, served by r, as a transient-withdrawal
// candidate.
func (p *FaultPlan) AddWithdrawal(r *Router, prefix netip.Prefix) {
	p.net = r.net
	p.pfxOwner = append(p.pfxOwner, r.idx)
	p.pfxs = append(p.pfxs, prefix)
}

// Install draws the afflicted subsets and window phases from the seed
// and attaches fault state to the registered targets. Registration
// order is the draw order, so identical registration sequences yield
// identical plans.
func (p *FaultPlan) Install() FaultSummary {
	cfg := p.cfg
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda3e39cb94b95bdb))
	sum := FaultSummary{Links: len(p.links), Routers: len(p.routers)}
	if p.net == nil {
		return sum // nothing was registered
	}
	pl := p.net.mutable()

	// hit draws whether a fault class afflicts the next candidate; a class
	// that is off consumes no draw.
	hit := func(on bool, frac float64, count *int) bool {
		if !on || rng.Float64() >= frac {
			return false
		}
		*count++
		return true
	}
	flapPeriod := defDur(cfg.FlapPeriod, 40*time.Second)
	for _, l := range p.links {
		var lf linkFaults
		if hit(cfg.LossProb > 0, defFrac(cfg.LossFrac), &sum.LossyLinks) {
			lf.loss = cfg.LossProb
		}
		if hit(cfg.JitterMax > 0, defFrac(cfg.JitterFrac), &sum.JitterLinks) {
			lf.jitterMax = cfg.JitterMax
		}
		if hit(cfg.DupProb > 0, defFrac(cfg.DupFrac), &sum.DupLinks) {
			lf.dup = cfg.DupProb
		}
		if hit(cfg.FlapFrac > 0, cfg.FlapFrac, &sum.FlapLinks) {
			lf.down = faultWindow{offset: randDur(rng, flapPeriod), period: flapPeriod, duty: defDur(cfg.FlapDown, 4*time.Second)}
		}
		if lf != (linkFaults{}) {
			for _, id := range [2]IfaceID{l, pl.ifaces[l].peer} {
				lf.salt = ifaceSalt(cfg.Seed, pl.ifaces[id].addr)
				pl.setLinkFaults(id, lf)
			}
		}
	}

	outSpread := defDur(cfg.OutageSpread, 60*time.Second)
	outFor := defDur(cfg.OutageFor, 15*time.Second)
	supPeriod := defDur(cfg.SuppressPeriod, 45*time.Second)
	supFor := defDur(cfg.SuppressFor, 10*time.Second)
	// get returns r's fault record for one write; the next get may move it.
	get := func(r int32) *routerFaults {
		rec := &pl.routers[r]
		if rec.faults < 0 {
			rec.faults = int32(len(pl.routerFaults))
			pl.routerFaults = append(pl.routerFaults, routerFaults{})
		}
		return &pl.routerFaults[rec.faults]
	}
	for _, r := range p.routers {
		if hit(cfg.OutageFrac > 0, cfg.OutageFrac, &sum.OfflineRouters) {
			get(r).offline = faultWindow{offset: randDur(rng, outSpread), duty: outFor}
		}
		if hit(cfg.SuppressFrac > 0, cfg.SuppressFrac, &sum.SuppressRouters) {
			get(r).suppress = faultWindow{offset: randDur(rng, supPeriod), period: supPeriod, duty: supFor}
		}
	}

	wdPeriod := defDur(cfg.WithdrawPeriod, 60*time.Second)
	wdFor := defDur(cfg.WithdrawFor, 8*time.Second)
	for i, r := range p.pfxOwner {
		if cfg.WithdrawFrac <= 0 || rng.Float64() >= cfg.WithdrawFrac {
			continue
		}
		rf := get(r)
		if rf.withdraw.duty > 0 {
			continue // one withdrawn prefix per router keeps the model simple
		}
		rf.withdraw = faultWindow{
			offset: randDur(rng, wdPeriod),
			period: wdPeriod,
			duty:   wdFor,
		}
		rf.prefix = p.pfxs[i]
		sum.WithdrawnPfxs++
	}

	// Churn pool: drawn after (and independently of) the transient
	// withdrawals, from the same registration list. A zero ChurnProb
	// consumes no draws, so plans without churn stay byte-identical to
	// plans built before churn existed.
	if cfg.ChurnProb > 0 {
		for i, r := range p.pfxOwner {
			if rng.Float64() >= defFrac(cfg.ChurnFrac) {
				continue
			}
			rf := get(r)
			if rf.churnPrefix.IsValid() {
				continue // one churned prefix per router, like withdrawals
			}
			rf.churnSeed = rng.Uint64()
			rf.churnProb = cfg.ChurnProb
			rf.churnPrefix = p.pfxs[i]
			sum.ChurnedPfxs++
		}
	}

	return sum
}

// setLinkFaults attaches lf to one link direction.
func (p *plane) setLinkFaults(id IfaceID, lf linkFaults) {
	p.ifaces[id].faults = int32(len(p.linkFaults))
	p.linkFaults = append(p.linkFaults, lf)
}
