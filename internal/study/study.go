// Package study reproduces every table and figure of "The Record Route
// Option is an Option!" (IMC 2017) against the simulated Internet:
//
//	Table 1   — ping vs ping-RR response rates, by IP and by AS type
//	§3.2      — per-destination VP response distribution
//	Figure 1  — RR hops to the closest vantage point, by VP subset
//	§3.3      — reachability, greedy site selection, alias and
//	            ping-RRudp reclassification
//	Figure 2  — 2011 vs 2016 reachability
//	§3.5      — traceroute/RR AS stamping audit
//	Figure 3  — cloud-provider hop distance
//	Figure 4  — per-VP response counts at 10 vs 100 pps
//	Figure 5  — response rate vs initial TTL
//
// plus the extensions (atlas, LSRR, Doubletree, RR vs traceroute,
// chaos, epochs-live). Each experiment returns a result with a Render
// method that prints the same rows/series the paper reports, and the
// registry (Experiments, Lookup, Select) is the one list every front
// door dispatches from.
package study

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"time"

	"recordroute/internal/dataset"
	"recordroute/internal/measure"
	"recordroute/internal/obs"
	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

// Options tunes a study run.
type Options struct {
	// Rate is the default probing rate per VP (pps); 0 means 20, the
	// paper's rate.
	Rate float64
	// Timeout is the per-probe timeout; 0 means 2s.
	Timeout time.Duration
	// ShuffleSeed drives per-VP destination-order randomization.
	ShuffleSeed uint64
	// Retries is the per-probe retransmission budget: each probe is
	// retransmitted up to Retries times with exponential backoff before
	// it is declared lost. 0 disables retries (the paper's single-shot
	// probing). Retries also turn on RTT-adaptive per-attempt timeouts
	// (RFC 6298-style EWMA, clamped to Timeout), so retransmissions fire
	// as soon as the path's own RTT history says the attempt is lost.
	Retries int
	// Shards is the replica count every experiment spreads its VPs
	// over: 0 picks runtime.GOMAXPROCS, 1 = one replica on the study's
	// own engine, >1 that many cloned replicas. Renders are the same at
	// any count; Figure 4 puts every VP on replica 0.
	Shards int
	// FaultEpoch pins the long-horizon churn clock
	// (netsim.SetFaultEpoch) for the whole run: epoch-churned prefixes
	// (FaultConfig.ChurnProb) are present or withdrawn as a pure
	// function of this value. Deliberately NOT part of the topology
	// config — the frozen route plane is epoch-invariant, so recurring
	// campaigns hit the same plane cache entry every epoch.
	FaultEpoch int
}

func (o Options) rate() float64 {
	if o.Rate <= 0 {
		return 20
	}
	return o.Rate
}

func (o Options) timeout() time.Duration {
	if o.Timeout <= 0 {
		return 2 * time.Second
	}
	return o.Timeout
}

// ProbeOpts are the per-probe options every campaign probe is sent with.
func (o Options) ProbeOpts() probe.Options {
	return probe.Options{Rate: o.rate(), Timeout: o.timeout(), Retries: o.Retries, Adaptive: o.Retries > 0}
}

func (o Options) shards() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return runtime.GOMAXPROCS(0)
}

// Study binds a built topology to its datasets and vantage points.
type Study struct {
	Topo *topology.Topology
	Data *dataset.Dataset
	Opts Options

	// Camp and CloudCamp are the platform (M-Lab + PlanetLab) and cloud
	// VP rosters on the study's own engine: what direct probes use, and
	// at one shard the fleet's replica.
	Camp      *measure.Campaign
	CloudCamp *measure.Campaign

	// Origin issues the plain-ping responsiveness probes, standing in
	// for the paper's single USC machine. It is the first M-Lab VP not
	// behind a source-proximate policer.
	Origin *measure.VantagePoint

	table1   *Responsiveness // Table1's memo
	fleet    *measure.ParallelCampaign
	observer *obs.Observer
	journal  *measure.Journal
	ctx      context.Context
}

// New builds the simulated Internet for cfg and wires up the campaign.
func New(cfg topology.Config, opts Options) (*Study, error) {
	topo, err := topology.Build(cfg)
	if err != nil {
		return nil, err
	}
	return NewFromTopology(topo, opts)
}

// NewFromTopology wires a study over an already-built topology — the
// campaign-service path, where a frozen-plane cache hands out one Build
// per distinct config and each job gets a clone.
func NewFromTopology(topo *topology.Topology, opts Options) (*Study, error) {
	s := &Study{
		Topo: topo,
		Data: dataset.FromTopology(topo),
		Opts: opts,
	}
	// The epoch is overlay state on this study's private network; the
	// replicas cloned from it inherit the same epoch.
	topo.Net.SetFaultEpoch(opts.FaultEpoch)
	s.Camp = measure.NewCampaign(topo, topo.VPs)
	s.CloudCamp = measure.NewCampaign(topo, topo.CloudVPs)
	for _, vp := range topo.VPs {
		if vp.Kind == topology.MLab && !vp.SourceRateLimited {
			s.Origin = s.Camp.VP(vp.Name)
			break
		}
	}
	if s.Origin == nil {
		s.Origin = s.Camp.VPs[0]
	}
	return s, nil
}

// Fleet returns the executor every experiment probes through: the
// study's platform and cloud rosters on Opts' replica count, made on
// first use. One replica is the study's own engine, run inline with no
// clone, journaled or not; more are clones of this study's topology
// snapshot, so the Build New already paid is never repeated.
func (s *Study) Fleet() measure.Fleet { return s.campaign() }

// campaign is Fleet's executor.
func (s *Study) campaign() *measure.ParallelCampaign {
	if s.fleet == nil {
		s.fleet = measure.NewFleet(s.Camp, s.CloudCamp, s.Opts.shards())
		s.fleet.AttachJournal(s.journal)
		s.fleet.SetContext(s.ctx)
		s.fleet.Observe(s.observer)
	}
	return s.fleet
}

// Table1 returns the study's Table 1 measurement, running the campaign
// on first use: the one measurement every later experiment on this
// study reads. RunResponsiveness is the campaign itself, uncached.
func (s *Study) Table1() *Responsiveness {
	if s.table1 == nil {
		s.table1 = s.RunResponsiveness()
	}
	return s.table1
}

// Table1Memo returns Table1's measurement if it has run, else nil.
func (s *Study) Table1Memo() *Responsiveness { return s.table1 }

// SetContext arms cooperative cancellation on the study's fleet: once
// ctx is done, the next deterministic boundary — a primitive start or a
// per-VP checkpoint — aborts the campaign with a measure.Canceled panic
// the caller classifies via measure.CanceledFrom. The campaign-service daemon uses this for job
// deadlines and DELETE /jobs/{id}; aborting only at those boundaries
// keeps every journaled batch resume-safe (DESIGN.md §13).
func (s *Study) SetContext(ctx context.Context) {
	s.ctx = ctx
	if s.fleet != nil {
		s.fleet.SetContext(ctx)
	}
}

// AttachJournal makes the study's fleet journaled: completed per-VP
// batches stream to the JSONL journal at path as they finish, and —
// when resume is true and path holds a compatible journal — already
// completed batches are skipped, so a killed campaign picks up where it
// stopped and reproduces the uninterrupted run byte-identically
// (DESIGN.md §11). The journal meta binds the topology digest
// and every RNG-relevant option, so resuming with a different world or
// different options is refused. Must be called before the first Fleet
// use; the returned journal is owned by the study (CloseJournal).
func (s *Study) AttachJournal(path string, resume bool) (*measure.Journal, error) {
	if s.fleet != nil {
		return nil, fmt.Errorf("study: AttachJournal after the fleet is already built")
	}
	meta := measure.JournalMeta{
		Digest:      s.Topo.Cfg.Digest(),
		Shards:      s.Opts.shards(),
		Quantum:     journalQuantum(len(s.Data.Hitlist), s.Opts.rate(), s.Opts.timeout(), s.Opts.Retries),
		Rate:        s.Opts.rate(),
		Timeout:     s.Opts.timeout(),
		ShuffleSeed: s.Opts.ShuffleSeed,
		Retries:     s.Opts.Retries,
		Adaptive:    s.Opts.Retries > 0,
		FaultEpoch:  s.Opts.FaultEpoch,
	}
	var (
		j   *measure.Journal
		err error
	)
	if resume {
		j, err = measure.ResumeJournal(path, meta)
	} else {
		j, err = measure.CreateJournal(path, meta)
	}
	if err != nil {
		return nil, err
	}
	s.journal = j
	return j, nil
}

// journalQuantum sizes a journaled phase's slot of virtual time to what
// bounds its drain: dests destinations sent the most pings a phase sends
// one (aliasRounds) at rate per second, then the last one's timeout on
// every attempt. Whole hours, never below measure.DefaultQuantum: a run
// an hour held keeps its quantum and its journals. endPhase checks it.
func journalQuantum(dests int, rate float64, timeout time.Duration, retries int) time.Duration {
	drain := time.Duration(float64(dests*aliasRounds)/rate*float64(time.Second)) + timeout*time.Duration(retries+1)
	return max(measure.DefaultQuantum, (drain + time.Hour - 1).Truncate(time.Hour))
}

// CloseJournal flushes and closes the attached journal, if any.
func (s *Study) CloseJournal() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}

// EpochSeed derives the per-epoch shuffle seed of a recurring campaign
// from its base seed: a splitmix-style hash of (base, epoch), so each
// epoch probes in a fresh deterministic order while epoch 0 of two
// schedules with different bases never collide. The topology seed is
// deliberately not derived per epoch — the route plane (and its digest,
// hence the service's plane-cache key) must stay constant across epochs
// so repeat epochs land on an already-built plane.
func EpochSeed(base uint64, epoch int) uint64 {
	h := base + uint64(epoch)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Shuffler returns a deterministic per-VP destination permutation,
// mirroring the paper's randomized probing order (§4.1).
func (s *Study) Shuffler() func(vp string, dests []netip.Addr) []netip.Addr {
	return func(vp string, dests []netip.Addr) []netip.Addr {
		var h uint64 = 14695981039346656037
		for i := 0; i < len(vp); i++ {
			h ^= uint64(vp[i])
			h *= 1099511628211
		}
		rng := rand.New(rand.NewPCG(s.Opts.ShuffleSeed^h, h))
		out := append([]netip.Addr(nil), dests...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}

// vpNamesOfKind lists platform VP names of one kind.
func (s *Study) vpNamesOfKind(kind topology.VPKind) []string {
	var out []string
	for _, vp := range s.Topo.VPs {
		if vp.Kind == kind {
			out = append(out, vp.Name)
		}
	}
	return out
}

// pct returns 100*num/den, or 0.
func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// frac returns num/den, or 0.
func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
