package study

import (
	"math"
	"strings"
	"testing"
	"time"

	"recordroute/internal/topology"
)

// TestSpecResolve: Resolve holds every refusal of a run spec, one row
// each, and resolves what it accepts to the config and options the
// fields name. The facade and the daemon return these errors verbatim
// (the root package's TestDoorsRefuseAlike).
func TestSpecResolve(t *testing.T) {
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		{"epoch", Spec{Epoch: 1999}, "unknown epoch 1999 (want 2016 or 2011)"},
		{"scale-negative", Spec{Scale: -2}, "scale -2 out of range (0, 100]"},
		{"scale-above-100", Spec{Scale: 101}, "scale 101 out of range (0, 100]"},
		{"profile-and-scale", Spec{Profile: "large", Scale: 0.5}, `profile "large" and scale 0.5 are mutually exclusive`},
		{"profile-unknown", Spec{Profile: "huge"}, `unknown scale profile "huge"`},
		{"retries-negative", Spec{Retries: -1}, "retries -1 is negative"},
		{"timeout-negative", Spec{Timeout: -time.Second}, "timeout -1s is negative"},
		{"attempts-overflow", Spec{Timeout: math.MaxInt64 / 3, Retries: 3}, "overflows"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := c.spec.Resolve(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Resolve(%+v) = %v, want an error containing %q", c.spec, err, c.want)
			}
		})
	}

	small, err := topology.ProfileConfig(topology.Epoch2011, topology.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	small.Seed = 5
	scaled := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	for _, c := range []struct {
		name string
		spec Spec
		cfg  topology.Config
		opts Options
	}{
		{"zero", Spec{}, topology.DefaultConfig(topology.Epoch2016), Options{}},
		{"profile", Spec{Profile: "small", Epoch: 2011, Seed: 5}, small, Options{}},
		{"scale-and-options", Spec{Scale: 0.15, Rate: 200, Timeout: time.Second, ShuffleSeed: 7, Retries: 2, Shards: 3, FaultEpoch: 4},
			scaled, Options{Rate: 200, Timeout: time.Second, ShuffleSeed: 7, Retries: 2, Shards: 3, FaultEpoch: 4}},
		{"attempts-at-the-limit", Spec{Timeout: math.MaxInt64 / 3, Retries: 2},
			topology.DefaultConfig(topology.Epoch2016), Options{Timeout: math.MaxInt64 / 3, Retries: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg, opts, err := c.spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Digest() != c.cfg.Digest() || opts != c.opts {
				t.Errorf("Resolve(%+v) = %+v, %+v; want %+v, %+v", c.spec, cfg, opts, c.cfg, c.opts)
			}
		})
	}
}
