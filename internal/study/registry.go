package study

import (
	"fmt"
	"io"
	"strings"

	"recordroute/internal/netsim"
)

// Params carries one experiment run's knobs: exactly what rrstudy's
// flags set. The zero value is rrstudy's default for every experiment.
type Params struct {
	// Cap bounds the destinations an experiment probes: per M-Lab VP for
	// the audit, atlas, LSRR and rr-vs-tr, per VP and class for Figure 5,
	// per set for Figure 3, and in all for Figure 4 (default 1000) and
	// the traceroute experiment (default: the whole hitlist). 0 is the
	// experiment's default.
	Cap int
	// Rounds is the traceroute experiment's Doubletree round count
	// (0 = 4).
	Rounds int
	// Epochs is how many fault epochs epochs-live measures (0 = 3).
	Epochs int
	// ChaosLoss and ChaosOutages, when either is set, replace the chaos
	// sweep's default levels with one "custom" level: ChaosLoss
	// per-direction loss on a quarter of the links, and ChaosOutages of
	// the routers suffering a transient outage.
	ChaosLoss, ChaosOutages float64
	// ChaosRetries is the chaos recovery arm's retransmission budget
	// (0 = 2).
	ChaosRetries int
}

// Result is an experiment's outcome; it renders the rows and series the
// paper reports.
type Result interface{ Render(io.Writer) }

// Experiment is one registry entry.
type Experiment struct {
	Name string
	// All marks the entries the "all" selector runs: the paper's tables
	// and figures.
	All bool
	// Run measures the experiment on s. Entries after Table 1 read the
	// study's one Table 1 measurement (Study.Table1); Figure 2, chaos
	// and epochs-live build worlds of their own from s.Topo.Cfg and
	// s.Opts and probe them under the study's context.
	Run func(s *Study, p Params) (Result, error)
	// Batches, when set, is how many journal batch checkpoints Run
	// completes on a fresh study: a service's progress total. Nil means
	// unknown.
	Batches func(s *Study) int
}

// registry is the one list of experiments, in paper order. Every front
// door — rrstudy, the root facade, rrstudyd — dispatches from it.
var registry = []Experiment{
	{Name: "table1", All: true, Batches: table1Batches,
		Run: func(s *Study, _ Params) (Result, error) { return s.Table1(), nil }},
	{Name: "vpdist", Batches: table1Batches,
		Run: func(s *Study, _ Params) (Result, error) { return s.Table1().VPResponseDist(), nil }},
	{Name: "fig1", All: true,
		Run: func(s *Study, _ Params) (Result, error) { return s.RunReachability(s.Table1()), nil }},
	{Name: "fig2", All: true,
		Run: func(s *Study, _ Params) (Result, error) { return result(RunEpochComparison(s.ctx, s.Topo.Cfg, s.Opts)) }},
	{Name: "audit", All: true,
		Run: func(s *Study, p Params) (Result, error) { return s.RunStampAudit(s.Table1(), p.Cap), nil }},
	{Name: "fig3", All: true,
		Run: func(s *Study, p Params) (Result, error) { return s.RunCloudDistance(s.Table1(), p.Cap), nil }},
	{Name: "fig4", All: true,
		Run: func(s *Study, p Params) (Result, error) {
			if p.Cap == 0 {
				p.Cap = 1000
			}
			return s.RunRateLimit(s.Table1(), p.Cap), nil
		}},
	{Name: "fig5", All: true,
		Run: func(s *Study, p Params) (Result, error) { return s.RunTTLStudy(s.Table1(), p.Cap), nil }},
	{Name: "atlas", All: true,
		Run: func(s *Study, p Params) (Result, error) { return s.RunAtlas(s.Table1(), p.Cap), nil }},
	{Name: "lsrr", All: true,
		Run: func(s *Study, p Params) (Result, error) { return s.RunSourceRouteCheck(s.Table1(), p.Cap), nil }},
	{Name: "traceroute",
		Run: func(s *Study, p Params) (Result, error) { return s.RunDoubletree(p.Cap, p.Rounds), nil }},
	{Name: "rr-vs-tr",
		Run: func(s *Study, p Params) (Result, error) { return s.RunRRvsTR(s.Table1(), p.Cap), nil }},
	{Name: "chaos", Run: runChaos},
	{Name: "epochs-live",
		Run: func(s *Study, p Params) (Result, error) {
			return result(RunEpochsLive(s.ctx, s.Topo.Cfg, s.Opts, p.Epochs))
		}},
}

// table1Batches counts Table 1's checkpoints: one ping-RR batch per VP
// plus one range of the origin's destination-sharded ping phase per
// replica (DESIGN.md §15).
func table1Batches(s *Study) int { return len(s.Topo.VPs) + s.Fleet().NumShards() }

// runChaos runs the fault sweep against worlds built from the study's
// own config and options; the recovery budget is p's, not s.Opts'.
func runChaos(s *Study, p Params) (Result, error) {
	var levels []ChaosLevel
	if p.ChaosLoss > 0 || p.ChaosOutages > 0 {
		levels = []ChaosLevel{{"custom", netsim.FaultConfig{
			LossProb: p.ChaosLoss, LossFrac: 0.25, OutageFrac: p.ChaosOutages}}}
	}
	opts := s.Opts
	opts.Retries = p.ChaosRetries
	return result(RunChaos(s.ctx, s.Topo.Cfg, opts, levels))
}

// result adapts a typed (result, error) pair, keeping a failed run's
// Result a true nil.
func result[R Result](r R, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Experiments lists the registry in paper order.
func Experiments() []Experiment { return registry }

// Lookup returns the registered experiment called name; the error for
// an unknown name lists the registered ones.
func Lookup(name string) (Experiment, error) {
	var names []string
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
		names = append(names, e.Name)
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (registered: %s)", name, strings.Join(names, ", "))
}

// Select resolves an experiment selector: "all" is every entry marked
// All, in paper order; any other selector must be a registered name.
func Select(selector string) ([]Experiment, error) {
	if selector != "all" {
		e, err := Lookup(selector)
		if err != nil {
			return nil, fmt.Errorf("%v, or all", err)
		}
		return []Experiment{e}, nil
	}
	var out []Experiment
	for _, e := range registry {
		if e.All {
			out = append(out, e)
		}
	}
	return out, nil
}
