// Package recordroute reproduces "The Record Route Option is an
// Option!" (Goodchild et al., IMC 2017): a measurement toolkit built
// around the IPv4 Record Route option, together with a deterministic
// packet-level Internet simulator to run it against.
//
// The package is the public facade. An Internet value wraps a generated
// topology (autonomous systems, policy routing, routers that stamp RR
// options, rate-limit the options slow path, filter, or hide from
// traceroute) plus vantage points mirroring the paper's M-Lab and
// PlanetLab deployments and per-cloud measurement hosts.
//
// Quick start:
//
//	inet, err := recordroute.New(recordroute.WithScale(0.2))
//	if err != nil { ... }
//	vp := inet.VPNames()[0]
//	reply, err := inet.PingRR(vp, inet.Destinations()[0])
//	fmt.Println(reply.RecordedRoute)
//
// The paper's tables and figures are reproduced by Run, which runs one
// registered experiment (Experiments lists them), renders its
// rows/series, and folds its machine-readable summary into Report.
package recordroute

import (
	"fmt"
	"time"

	"recordroute/internal/netsim"
	"recordroute/internal/topology"
)

// Epoch selects the modeled interconnection era.
type Epoch int

const (
	// Epoch2016 is the paper's measurement era (the flattened Internet).
	Epoch2016 Epoch = iota
	// Epoch2011 models the sparse-peering era of the §3.4 comparison.
	Epoch2011
)

// options collects construction parameters.
type options struct {
	epoch   Epoch
	scale   float64
	profile string
	seed    uint64
	rate    float64
	timeout time.Duration
	shards  int
	retries int
	faults  *FaultProfile
}

// FaultProfile parameterizes deterministic fault injection ("chaos")
// over the simulated Internet: link loss, jitter, duplication, flaps,
// router outages, ICMP-error suppression, and transient route
// withdrawals, all drawn from the seed so equal seeds give identical
// weather. The zero value injects nothing. Fields mirror the internal
// netsim.FaultConfig; *Frac fields select the afflicted fraction of
// candidates (0 means all, when the matching probability is set).
type FaultProfile struct {
	// Seed drives the fault draws; 0 inherits the Internet's seed.
	Seed uint64
	// LossProb drops packets per direction on LossFrac of links.
	LossProb, LossFrac float64
	// JitterMax adds up to that much extra one-way delay on JitterFrac
	// of links (jittered links may reorder).
	JitterMax  time.Duration
	JitterFrac float64
	// DupProb duplicates packets on DupFrac of links.
	DupProb, DupFrac float64
	// FlapFrac of links go down FlapDown out of every FlapPeriod.
	FlapFrac             float64
	FlapPeriod, FlapDown time.Duration
	// OutageFrac of routers suffer one OutageFor outage starting within
	// OutageSpread.
	OutageFrac              float64
	OutageSpread, OutageFor time.Duration
	// SuppressFrac of routers mute ICMP errors SuppressFor out of every
	// SuppressPeriod.
	SuppressFrac                float64
	SuppressPeriod, SuppressFor time.Duration
	// WithdrawFrac of destination prefixes are transiently withdrawn at
	// their attachment router WithdrawFor out of every WithdrawPeriod.
	WithdrawFrac                float64
	WithdrawPeriod, WithdrawFor time.Duration
	// ChurnFrac of destination prefixes join the long-horizon churn
	// pool: each pooled prefix is withdrawn for a whole fault epoch
	// (the recurring-campaign cadence; see EpochsLive) with per-epoch
	// probability ChurnProb.
	ChurnFrac, ChurnProb float64
}

// faultConfig converts the profile to the internal fault config.
func (p *FaultProfile) faultConfig(seed uint64) *netsim.FaultConfig {
	if p == nil {
		return nil
	}
	fc := netsim.FaultConfig{
		Seed:     p.Seed,
		LossProb: p.LossProb, LossFrac: p.LossFrac,
		JitterMax: p.JitterMax, JitterFrac: p.JitterFrac,
		DupProb: p.DupProb, DupFrac: p.DupFrac,
		FlapFrac: p.FlapFrac, FlapPeriod: p.FlapPeriod, FlapDown: p.FlapDown,
		OutageFrac: p.OutageFrac, OutageSpread: p.OutageSpread, OutageFor: p.OutageFor,
		SuppressFrac: p.SuppressFrac, SuppressPeriod: p.SuppressPeriod, SuppressFor: p.SuppressFor,
		WithdrawFrac: p.WithdrawFrac, WithdrawPeriod: p.WithdrawPeriod, WithdrawFor: p.WithdrawFor,
		ChurnFrac: p.ChurnFrac, ChurnProb: p.ChurnProb,
	}
	if fc.Seed == 0 {
		fc.Seed = seed
	}
	return &fc
}

// Option configures New.
type Option func(*options)

// WithEpoch selects the interconnection era (default Epoch2016).
func WithEpoch(e Epoch) Option { return func(o *options) { o.epoch = e } }

// WithScale multiplies the default topology size (1.0 ≈ 1/100 of the
// paper's scale; tests typically use 0.15–0.3).
func WithScale(f float64) Option { return func(o *options) { o.scale = f } }

// WithScaleProfile selects a named topology size — "small", "medium",
// or "large" (10⁵+ advertised prefixes, approaching the paper's hitlist
// magnitude) — overriding WithScale. Large topologies are built once
// and replicated by snapshot cloning when sharded; see WithShards.
func WithScaleProfile(name string) Option { return func(o *options) { o.profile = name } }

// WithSeed fixes all randomness; equal seeds give identical Internets.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithProbeRate sets the default per-VP probing rate in packets per
// second (default 20, the paper's rate).
func WithProbeRate(pps float64) Option { return func(o *options) { o.rate = pps } }

// WithTimeout sets the per-probe timeout (default 2s of virtual time).
func WithTimeout(d time.Duration) Option { return func(o *options) { o.timeout = d } }

// WithShards sets how many simulator replicas the shard-invariant
// experiments (Table 1, Figure 1, Figure 2, the traceroute experiments)
// spread their vantage points over: 0 (default) uses one per
// runtime.GOMAXPROCS, 1 = one replica on the study's own engine, k > 1
// runs k cloned replicas on a worker pool. Sharding applies to the
// per-VP fan-out and to the single-VP origin phases (responsiveness
// pings, alias IP-ID series), whose destination lists fan across the
// replicas in contiguous ranges. Results are identical either way; see
// DESIGN.md "Parallel execution model" and "Destination-sharded origin
// phases". The single-engine experiments (Figures 3–5, the stamping
// audit, atlas, LSRR) always run on one pristine replica, whatever k.
func WithShards(k int) Option { return func(o *options) { o.shards = k } }

// WithFaults installs a deterministic fault-injection plan over the
// built network (see FaultProfile). Faults are part of the seed: equal
// seeds and profiles give identical weather, so faulted runs stay
// byte-reproducible.
func WithFaults(p FaultProfile) Option { return func(o *options) { o.faults = &p } }

// WithRetries gives every probe up to n retransmissions with
// exponential backoff and RTT-adaptive timeouts (default 0: the
// paper's single-shot probing). Useful together with WithFaults to
// measure how much of the fault-induced classification loss retrying
// recovers.
func WithRetries(n int) Option { return func(o *options) { o.retries = n } }

// buildConfig resolves options into a topology configuration.
func buildConfig(opts []Option) (topology.Config, options) {
	o := options{scale: 1, seed: 0, epoch: Epoch2016}
	for _, fn := range opts {
		fn(&o)
	}
	epoch := topology.Epoch2016
	if o.epoch == Epoch2011 {
		epoch = topology.Epoch2011
	}
	cfg := topology.DefaultConfig(epoch)
	if o.scale > 0 && o.scale != 1 {
		cfg = cfg.Scale(o.scale)
	}
	if o.seed != 0 {
		cfg.Seed = o.seed
	}
	cfg.Faults = o.faults.faultConfig(cfg.Seed)
	return cfg, o
}

// validateScale rejects nonsense scales early with a clear error.
func validateScale(f float64) error {
	if f < 0 || f > 100 {
		return fmt.Errorf("recordroute: scale %v out of range (0, 100]", f)
	}
	return nil
}
