package study

import (
	"bytes"
	"context"
	"testing"

	"recordroute/internal/netsim"
	"recordroute/internal/topology"
)

func chaosTestConfig() topology.Config {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.2)
	cfg.Seed = 5
	return cfg
}

// TestChaosRetriesRecoverLostReachability is the experiment's core
// claim: at >= 10% link loss, single-shot probing loses RR-reachable
// classifications that retries plus the §3.3 rescue pipeline win back —
// a majority of them.
func TestChaosRetriesRecoverLostReachability(t *testing.T) {
	cfg := chaosTestConfig()
	levels := []ChaosLevel{
		{"loss-10", netsim.FaultConfig{LossProb: 0.10, LossFrac: 0.25}},
	}
	c, err := RunChaos(context.Background(), cfg, Options{Rate: 200, ShuffleSeed: 7}, levels)
	if err != nil {
		t.Fatal(err)
	}
	if c.Baseline.RRReachable == 0 {
		t.Fatal("baseline has no RR-reachable destinations")
	}
	st := c.Steps[0]
	if st.Faults.LossyLinks == 0 {
		t.Fatalf("no lossy links installed: %v", st.Faults)
	}
	if st.Lost == 0 {
		t.Fatalf("10%% link loss lost no RR-reachable classifications (baseline %d)",
			c.Baseline.RRReachable)
	}
	if 2*st.Recovered <= st.Lost {
		t.Errorf("retries recovered %d of %d lost classifications, want a majority",
			st.Recovered, st.Lost)
	}
	if st.Retry.RRReachable <= st.NoRetry.RRReachable {
		t.Errorf("retry arm RR-reachable %d not above single-shot %d",
			st.Retry.RRReachable, st.NoRetry.RRReachable)
	}
}

// TestChaosSweepDeterministic pins the acceptance bar for the CLI:
// the same seed renders a byte-identical chaos report on every run.
func TestChaosSweepDeterministic(t *testing.T) {
	levels := []ChaosLevel{
		{"storm", netsim.FaultConfig{LossProb: 0.10, LossFrac: 0.25, FlapFrac: 0.2,
			OutageFrac: 0.1, SuppressFrac: 0.2, WithdrawFrac: 0.2}},
	}
	run := func() []byte {
		c, err := RunChaos(context.Background(), chaosTestConfig(), Options{Rate: 200, ShuffleSeed: 7, Retries: 1}, levels)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		c.Render(&buf)
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("chaos report not reproducible:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestChaosShardEquivalence extends the DESIGN.md §6 determinism
// contract to fault-enabled workloads: with a fault plan installed and
// retries on, the rendered study output must be byte-identical between
// one replica on the study's own engine and three cloned ones. Content-keyed
// chaos draws are what make this hold — each packet's fate depends on
// the packet, not on unrelated traffic sharing an RNG stream.
func TestChaosShardEquivalence(t *testing.T) {
	cfg := chaosTestConfig()
	cfg.Faults = &netsim.FaultConfig{Seed: cfg.Seed, LossProb: 0.10, LossFrac: 0.25,
		FlapFrac: 0.2, OutageFrac: 0.1, SuppressFrac: 0.2, WithdrawFrac: 0.2}
	opts := Options{Rate: 200, ShuffleSeed: 7, Retries: 2}

	render := func(shards int) []byte {
		opts := opts
		opts.Shards = shards
		s, err := New(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := s.RunResponsiveness()
		re := s.RunReachability(r)
		var buf bytes.Buffer
		r.Render(&buf)
		re.Render(&buf)
		return buf.Bytes()
	}
	seq, par := render(1), render(3)
	if !bytes.Equal(seq, par) {
		t.Errorf("faulted study render differs between 1 and 3 shards:\n--- sequential ---\n%s\n--- sharded ---\n%s", seq, par)
	}
}
