package study

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// goldens pins every registered experiment to its golden render: the
// file under testdata/golden and the capped Params it renders at. The
// registry walks generate the tests, so an entry without a row here (or
// without its file) fails TestGoldenRenders.
var goldens = map[string]struct {
	file string
	p    Params
}{
	"table1":      {"table1_responsiveness", Params{}},
	"vpdist":      {"vpdist", Params{}},
	"fig1":        {"fig1_reachability", Params{}},
	"fig2":        {"fig2_epochs", Params{}},
	"audit":       {"stamp_audit", Params{Cap: 50}},
	"fig3":        {"fig3_clouds", Params{Cap: 100}},
	"fig4":        {"fig4_ratelimit", Params{Cap: 500}},
	"fig5":        {"fig5_ttl", Params{Cap: 200}},
	"atlas":       {"atlas", Params{Cap: 50}},
	"lsrr":        {"lsrr", Params{Cap: 40}},
	"traceroute":  {"doubletree_traceroute", Params{Cap: 120, Rounds: 3}},
	"rr-vs-tr":    {"rr_vs_tr", Params{Cap: 50}},
	"chaos":       {"chaos", Params{ChaosLoss: 0.1, ChaosOutages: 0.05}},
	"epochs-live": {"epochs_live", Params{}},
}

// render runs one registry entry on s and returns its render.
func render(t *testing.T, s *Study, e Experiment, p Params) []byte {
	t.Helper()
	res, err := e.Run(s, p)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	res.Render(&b)
	return b.Bytes()
}

// TestGoldenRenders pins every registered experiment's render
// byte-for-byte at a fixed scale, seed, and shuffle order, walking the
// registry in order on one study as rrstudy's "all" does. Every render
// is a pure function of the deterministic simulation, so any diff here
// is a real behavior change — rerun with -update only when the change
// is intended, and review the golden diff like code.
func TestGoldenRenders(t *testing.T) {
	s := testStudy(t, 0.25)
	for _, e := range Experiments() {
		g, ok := goldens[e.Name]
		if !ok {
			t.Errorf("registered experiment %q has no golden: add it to goldens", e.Name)
			continue
		}
		t.Run(g.file, func(t *testing.T) { compareGolden(t, g.file, render(t, s, e, g.p)) })
	}
}

// TestGoldenMetricsSnapshot pins the merged metrics snapshot of a small
// sharded campaign: the JSON must stay byte-stable across revisions
// (and, per DESIGN.md §6, across shard counts — covered by the
// property test in parallel_test.go).
func TestGoldenMetricsSnapshot(t *testing.T) {
	s := testStudy(t, 0.25)
	s.Opts.Shards = 2
	s.RunResponsiveness()
	snap := s.Metrics("golden")
	raw, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "metrics_snapshot", raw)
}

// compareGolden diffs got against testdata/golden/<name>.txt,
// rewriting the file when -update is set.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run `go test ./internal/study -run TestGolden -update`): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, firstDiffWindow(got, want), firstDiffWindow(want, got))
	}
}

// firstDiffWindow returns a short window of a around the first byte
// where a and b diverge, keeping failure output readable for large
// renders.
func firstDiffWindow(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := i - 120
	if start < 0 {
		start = 0
	}
	end := i + 240
	if end > len(a) {
		end = len(a)
	}
	return a[start:end]
}
