package recordroute

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"recordroute/internal/server"
	"recordroute/internal/study"
)

// TestDoorsRefuseAlike: a run the facade and the daemon can both
// describe is refused by New and by server.Submit with study.Spec.Resolve's
// error, word for word — there is one validation, not one per door.
func TestDoorsRefuseAlike(t *testing.T) {
	srv, err := server.New(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	for _, opts := range [][]Option{
		{WithEpoch(1999)},
		{WithScale(-2)},
		{WithScale(101)},
		{WithScale(0.5), WithScaleProfile("large")},
		{WithScaleProfile("huge")},
		{WithRetries(-1)},
		{WithTimeout(-time.Second)},
		{WithTimeout(math.MaxInt64 / 3), WithRetries(3)},
	} {
		spec := study.Spec{Experiment: "table1"}
		for _, fn := range opts {
			fn(&spec)
		}
		_, _, want := spec.Resolve()
		if want == nil {
			t.Fatalf("Resolve accepted %+v", spec)
		}
		if _, err := New(opts...); err == nil || err.Error() != want.Error() {
			t.Errorf("New on %+v: %v, want %q", spec, err, want)
		}
		if _, err := srv.Submit(spec); err == nil || err.Error() != want.Error() {
			t.Errorf("Submit(%+v): %v, want %q", spec, err, want)
		}
	}
}

// TestFacadeAndDaemonResolveAlike: the facade's options and the daemon's
// submit JSON for the same run build the same world with the same
// campaign options.
func TestFacadeAndDaemonResolveAlike(t *testing.T) {
	in := MustNew(WithScale(0.15), WithSeed(5), WithProbeRate(200), WithRetries(2))
	var spec server.JobSpec
	if err := json.Unmarshal([]byte(`{"scale":0.15,"seed":5,"rate":200,"retries":2}`), &spec); err != nil {
		t.Fatal(err)
	}
	cfg, opts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := in.st.Topo.Cfg.Digest(), cfg.Digest(); got != want {
		t.Errorf("facade world %s, daemon world %s", got, want)
	}
	if in.st.Opts != opts {
		t.Errorf("facade options %+v, daemon options %+v", in.st.Opts, opts)
	}
}
