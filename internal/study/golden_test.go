package study

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// TestGoldenRenders pins the rendered experiment output byte-for-byte
// at a fixed scale, seed, and shuffle order. Every render is a pure
// function of the deterministic simulation, so any diff here is a real
// behavior change — rerun with -update only when the change is
// intended, and review the golden diff like code.
func TestGoldenRenders(t *testing.T) {
	s := testStudy(t, 0.25)
	r := s.RunResponsiveness()

	cases := []struct {
		name   string
		render func(*bytes.Buffer)
	}{
		{"table1_responsiveness", func(b *bytes.Buffer) { r.Render(b) }},
		{"fig1_reachability", func(b *bytes.Buffer) { s.RunReachability(r).Render(b) }},
		{"fig4_ratelimit", func(b *bytes.Buffer) { s.RunRateLimit(r, 500).Render(b) }},
		{"fig5_ttl", func(b *bytes.Buffer) { s.RunTTLStudy(r, 200).Render(b) }},
		{"stamp_audit", func(b *bytes.Buffer) { s.RunStampAudit(r, 50).Render(b) }},
		{"doubletree_traceroute", func(b *bytes.Buffer) { s.RunDoubletree(120, 3).Render(b) }},
		{"rr_vs_tr", func(b *bytes.Buffer) { s.RunRRvsTR(r, 50).Render(b) }},
		{"fig3_clouds", func(b *bytes.Buffer) { s.RunCloudDistance(r, 100).Render(b) }},
		{"atlas", func(b *bytes.Buffer) { s.RunAtlas(r, 50).Render(b) }},
		{"lsrr", func(b *bytes.Buffer) { s.RunSourceRouteCheck(r, 40).Render(b) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			tc.render(&got)
			compareGolden(t, tc.name, got.Bytes())
		})
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
