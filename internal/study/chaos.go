package study

import (
	"context"
	"fmt"
	"io"
	"net/netip"

	"recordroute/internal/netsim"
	"recordroute/internal/obs"
	"recordroute/internal/topology"
)

// ChaosLevel is one step of the fault-intensity sweep: a label and the
// fault plan to install. A zero Faults.Seed inherits the topology seed.
type ChaosLevel struct {
	Label  string
	Faults netsim.FaultConfig
}

// DefaultChaosLevels is the standard loss/outage sweep: rising link
// loss, then outages and the full storm (flaps, ICMP suppression,
// transient withdrawals) on top.
func DefaultChaosLevels(seed uint64) []ChaosLevel {
	return []ChaosLevel{
		{"loss-2", netsim.FaultConfig{Seed: seed, LossProb: 0.02, LossFrac: 0.25}},
		{"loss-10", netsim.FaultConfig{Seed: seed, LossProb: 0.10, LossFrac: 0.25}},
		{"loss+outage", netsim.FaultConfig{Seed: seed, LossProb: 0.10, LossFrac: 0.25,
			OutageFrac: 0.05}},
		{"full-storm", netsim.FaultConfig{Seed: seed, LossProb: 0.10, LossFrac: 0.25,
			OutageFrac: 0.05, FlapFrac: 0.05, SuppressFrac: 0.10, WithdrawFrac: 0.10}},
	}
}

// ChaosArm holds one measurement arm's headline counts.
type ChaosArm struct {
	// PingResponsive counts destinations answering the origin's plain
	// pings; RRResponsive those answering some VP's ping-RR;
	// RRReachable the RR-responsive ones stamped within the nine-hop
	// limit.
	PingResponsive, RRResponsive, RRReachable int
}

// ChaosStep is one sweep level: the installed faults, the single-shot
// degradation arm, the retry recovery arm, and the recovery accounting
// against the fault-free baseline.
type ChaosStep struct {
	Label string
	// Faults summarizes what the plan installed at this level.
	Faults netsim.FaultSummary
	// NoRetry is the degradation arm: single-shot probing, RR-reachable
	// read straight off the ping-RR stats (no rescue pipeline). Retry
	// is the recovery arm: retransmissions with adaptive timeouts plus
	// the §3.3 rescue (alias resolution and ping-RRudp).
	NoRetry, Retry ChaosArm
	// Lost counts baseline-RR-reachable destinations the degradation
	// arm no longer classifies reachable; Recovered how many of those
	// the recovery arm wins back.
	Lost, Recovered int
}

// RecoveredFrac is the recovered share of lost classifications.
func (s ChaosStep) RecoveredFrac() float64 { return frac(s.Recovered, s.Lost) }

// Chaos is the fault-injection experiment: how fragile are the paper's
// headline classifications under network weather, and how much of the
// damage do probe retries plus the §3.3 rescue pipeline undo?
type Chaos struct {
	// Baseline is the fault-free single-shot measurement.
	Baseline ChaosArm
	// Steps are the sweep levels in input order.
	Steps []ChaosStep
	// Retries is the recovery arm's retransmission budget.
	Retries int
	// Snapshots holds each arm's metrics capture, keyed "baseline",
	// "<label>/single-shot", and "<label>/retry". Every arm rebuilds
	// its Internet from the same config and seeds, so snapshots are as
	// reproducible as the arms themselves.
	Snapshots map[string]*obs.Snapshot
}

// chaosArm builds a fresh Internet from cfg with the given fault plan
// and measures it. retries == 0 is the degradation arm: single-shot
// responsiveness only. retries > 0 is the recovery arm: retransmission
// with adaptive timeouts plus the full §3.3 rescue pipeline, whose
// reclassifications land in the returned reachable set.
func chaosArm(ctx context.Context, cfg topology.Config, opts Options, fc *netsim.FaultConfig, retries int, armLabel string) (ChaosArm, map[netip.Addr]bool, netsim.FaultSummary, *obs.Snapshot, error) {
	cfg.Faults = fc
	opts.Retries = retries
	s, err := New(cfg, opts)
	if err != nil {
		return ChaosArm{}, nil, netsim.FaultSummary{}, nil, err
	}
	s.SetContext(ctx)
	r := s.RunResponsiveness()
	if retries > 0 {
		s.RunReachability(r) // applies the alias and ping-RRudp upgrades to r.Stats
	}
	var arm ChaosArm
	reach := make(map[netip.Addr]bool)
	for _, d := range r.Dests {
		if r.PingResp[d] {
			arm.PingResponsive++
		}
		st := r.Stats[d]
		if st == nil || !st.RRResponsive() {
			continue
		}
		arm.RRResponsive++
		if st.RRReachable() {
			arm.RRReachable++
			reach[d] = true
		}
	}
	return arm, reach, s.Topo.Faults, s.Metrics(armLabel), nil
}

// RunChaos sweeps the fault levels (DefaultChaosLevels when nil),
// measuring each twice — single-shot and with retries — against a
// fault-free baseline. opts.Retries sets the recovery budget (default
// 2); every arm rebuilds the topology from cfg, so arms never observe
// each other's engine state and the whole sweep is a pure function of
// the seeds. Every arm probes under ctx (Study.SetContext).
func RunChaos(ctx context.Context, cfg topology.Config, opts Options, levels []ChaosLevel) (*Chaos, error) {
	if levels == nil {
		levels = DefaultChaosLevels(cfg.Seed)
	}
	retries := opts.Retries
	if retries <= 0 {
		retries = 2
	}
	c := &Chaos{Retries: retries, Snapshots: make(map[string]*obs.Snapshot)}
	var err error
	var baseReach map[netip.Addr]bool
	if c.Baseline, baseReach, _, c.Snapshots["baseline"], err = chaosArm(ctx, cfg, opts, nil, 0, "baseline"); err != nil {
		return nil, err
	}
	for _, lv := range levels {
		fc := lv.Faults
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed
		}
		step := ChaosStep{Label: lv.Label}
		var noReach, reReach map[netip.Addr]bool
		single, retry := lv.Label+"/single-shot", lv.Label+"/retry"
		if step.NoRetry, noReach, step.Faults, c.Snapshots[single], err = chaosArm(ctx, cfg, opts, &fc, 0, single); err != nil {
			return nil, err
		}
		if step.Retry, reReach, _, c.Snapshots[retry], err = chaosArm(ctx, cfg, opts, &fc, retries, retry); err != nil {
			return nil, err
		}
		for d := range baseReach {
			if noReach[d] {
				continue
			}
			step.Lost++
			if reReach[d] {
				step.Recovered++
			}
		}
		c.Steps = append(c.Steps, step)
	}
	return c, nil
}

// Render prints the sweep in the study's table style.
func (c *Chaos) Render(w io.Writer) {
	fmt.Fprintln(w, "== chaos: headline classifications under injected faults ==")
	fmt.Fprintf(w, "recovery arm: %d retries, adaptive timeouts, §3.3 rescue (alias + ping-RRudp)\n\n", c.Retries)
	fmt.Fprintf(w, "%-14s | %s | %s | %s\n", "",
		"single-shot  ping rr-resp rr-reach",
		fmt.Sprintf("%d-retry  ping rr-resp rr-reach", c.Retries),
		"lost recovered")
	row := func(label string, a ChaosArm) {
		fmt.Fprintf(w, "%-14s | %17d %7d %8d |", label, a.PingResponsive, a.RRResponsive, a.RRReachable)
	}
	row("none", c.Baseline)
	fmt.Fprintf(w, "%13s %7s %8s |\n", "", "", "")
	for _, st := range c.Steps {
		row(st.Label, st.NoRetry)
		fmt.Fprintf(w, "%13d %7d %8d | %4d %6d (%.0f%%)\n",
			st.Retry.PingResponsive, st.Retry.RRResponsive, st.Retry.RRReachable,
			st.Lost, st.Recovered, 100*st.RecoveredFrac())
	}
	fmt.Fprintln(w, "\ninstalled faults per level:")
	for _, st := range c.Steps {
		fmt.Fprintf(w, "  %-14s %s\n", st.Label, st.Faults)
	}
}
