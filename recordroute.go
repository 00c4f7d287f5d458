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
	"time"

	"recordroute/internal/study"
)

// Epoch selects the modeled interconnection era by its year.
type Epoch int

const (
	// Epoch2016 is the paper's measurement era (the flattened Internet).
	Epoch2016 Epoch = 2016
	// Epoch2011 models the sparse-peering era of the §3.4 comparison.
	Epoch2011 Epoch = 2011
)

// Option configures New: each sets one field of the run's study.Spec,
// the contract the rrstudyd daemon's submit body fills too.
type Option func(*study.Spec)

// WithEpoch selects the interconnection era (default Epoch2016).
func WithEpoch(e Epoch) Option { return func(s *study.Spec) { s.Epoch = int(e) } }

// WithScale multiplies the default topology size (1.0 ≈ 1/100 of the
// paper's scale; tests typically use 0.15–0.3).
func WithScale(f float64) Option { return func(s *study.Spec) { s.Scale = f } }

// WithScaleProfile selects a named topology size — "small", "medium",
// or "large" (10⁵+ advertised prefixes, approaching the paper's hitlist
// magnitude) — instead of WithScale: New refuses the two together.
// Large topologies are built once and replicated by snapshot cloning
// when sharded; see WithShards.
func WithScaleProfile(name string) Option { return func(s *study.Spec) { s.Profile = name } }

// WithSeed fixes all randomness; equal seeds give identical Internets.
func WithSeed(seed uint64) Option { return func(s *study.Spec) { s.Seed = seed } }

// WithProbeRate sets the default per-VP probing rate in packets per
// second (default 20, the paper's rate).
func WithProbeRate(pps float64) Option { return func(s *study.Spec) { s.Rate = pps } }

// WithTimeout sets the per-probe timeout (default 2s of virtual time).
func WithTimeout(d time.Duration) Option { return func(s *study.Spec) { s.Timeout = d } }

// WithShards sets how many simulator replicas the experiments spread
// their vantage points over: 0 (default) uses one per
// runtime.GOMAXPROCS, 1 = one replica on the study's own engine, k > 1
// runs k cloned replicas on a worker pool. Sharding applies to the
// per-VP fan-out and to the single-VP origin phases (responsiveness
// pings, alias IP-ID series), whose destination lists fan across the
// replicas in contiguous ranges. Results are identical either way; see
// DESIGN.md "Parallel execution model" and "Destination-sharded origin
// phases".
func WithShards(k int) Option { return func(s *study.Spec) { s.Shards = k } }

// WithRetries gives every probe up to n retransmissions with
// exponential backoff and RTT-adaptive timeouts (default 0: the
// paper's single-shot probing).
func WithRetries(n int) Option { return func(s *study.Spec) { s.Retries = n } }
