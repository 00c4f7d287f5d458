package study

import (
	"fmt"
	"math"
	"time"

	"recordroute/internal/netsim"
	"recordroute/internal/topology"
)

// Spec is one run, whichever door it comes in by: the daemon's submit
// body, the facade's options and (through the facade) rrstudy's flags
// all fill one. The zero value of each field means its default. Resolve
// is the one place a Spec is validated and turned into a world and its
// campaign options.
type Spec struct {
	// Experiment names a registered experiment (Lookup; the names
	// rrstudy -experiment takes), run at its default parameters.
	Experiment string `json:"experiment"`
	// Scale multiplies the default topology sizing (1.0 ≈ 1/100 of the
	// paper's probing volume). Mutually exclusive with Profile.
	Scale float64 `json:"scale,omitempty"`
	// Profile selects a named topology size (small|medium|large)
	// instead of a numeric Scale.
	Profile string `json:"profile,omitempty"`
	// Seed overrides the world seed (0 = built-in default).
	Seed uint64 `json:"seed,omitempty"`
	// Epoch is 2016 (default) or 2011.
	Epoch int `json:"epoch,omitempty"`
	// Faults installs a deterministic fault plan over the topology
	// (chaos weather, long-horizon churn). It rides in the Config, so
	// runs with different fault plans never share a plane.
	Faults *netsim.FaultConfig `json:"faults,omitempty"`
	// Shards, Rate, Timeout (in nanoseconds on the wire, as in the
	// journal meta), ShuffleSeed, Retries and FaultEpoch are the Options
	// fields of the same names.
	Shards      int           `json:"shards,omitempty"`
	Rate        float64       `json:"rate,omitempty"`
	Timeout     time.Duration `json:"timeout_ns,omitempty"`
	ShuffleSeed uint64        `json:"shuffle_seed,omitempty"`
	Retries     int           `json:"retries,omitempty"`
	FaultEpoch  int           `json:"fault_epoch,omitempty"`
	// Journal overrides the daemon's journal path (default:
	// DataDir/<job>.jsonl); with Resume set, completed batches found
	// there are skipped and the run picks up where the journal stops.
	Journal string `json:"journal,omitempty"`
	Resume  bool   `json:"resume,omitempty"`
}

// Resolve validates the spec and resolves it into the topology
// configuration that keys the world (and the daemon's plane cache) and
// the campaign options it is probed with. It is the only place a
// profile name becomes a Config.
func (sp Spec) Resolve() (topology.Config, Options, error) {
	fail := func(format string, a ...any) (topology.Config, Options, error) {
		return topology.Config{}, Options{}, fmt.Errorf(format, a...)
	}
	epoch := topology.Epoch2016
	switch sp.Epoch {
	case 0, 2016:
	case 2011:
		epoch = topology.Epoch2011
	default:
		return fail("unknown epoch %d (want 2016 or 2011)", sp.Epoch)
	}
	if sp.Scale < 0 || sp.Scale > 100 {
		return fail("scale %v out of range (0, 100]", sp.Scale)
	}
	if sp.Profile != "" && sp.Scale != 0 {
		return fail("profile %q and scale %v are mutually exclusive", sp.Profile, sp.Scale)
	}
	opts := Options{
		Rate: sp.Rate, Timeout: sp.Timeout, ShuffleSeed: sp.ShuffleSeed,
		Retries: sp.Retries, Shards: sp.Shards, FaultEpoch: sp.FaultEpoch,
	}
	switch {
	case sp.Retries < 0:
		return fail("retries %d is negative", sp.Retries)
	case sp.Timeout < 0:
		return fail("timeout %v is negative", sp.Timeout)
	case int64(sp.Retries) >= math.MaxInt64/int64(opts.timeout()):
		// journalQuantum multiplies them.
		return fail("timeout %v over %d retries overflows", opts.timeout(), sp.Retries)
	}
	// An empty profile is the default, medium, sizing.
	cfg, err := topology.ProfileConfig(epoch, topology.ScaleProfile(sp.Profile))
	if err != nil {
		return topology.Config{}, Options{}, err
	}
	if sp.Scale > 0 && sp.Scale != 1 {
		cfg = cfg.Scale(sp.Scale)
	}
	if sp.Seed != 0 {
		cfg.Seed = sp.Seed
	}
	cfg.Faults = sp.Faults
	return cfg, opts, nil
}
