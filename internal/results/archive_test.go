package results_test

import (
	"bytes"
	"testing"

	"recordroute/internal/analysis"
	"recordroute/internal/results"
	"recordroute/internal/study"
	"recordroute/internal/topology"
)

// TestArchivedResultsReanalyze demonstrates the archive's purpose: run
// a study, archive its raw ping-RR results as the journal's JSONL, read
// them back, and verify the re-derived classification matches the live
// one.
func TestArchivedResultsReanalyze(t *testing.T) {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	s, err := study.New(cfg, study.Options{Rate: 200})
	if err != nil {
		t.Fatal(err)
	}
	r := s.RunResponsiveness()

	var buf bytes.Buffer
	for vp, rs := range r.PerVP {
		if err := results.WriteJSONL(&buf, vp, rs); err != nil {
			t.Fatal(err)
		}
	}
	back, err := results.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	liveStats := analysis.AggregateRR(r.PerVP)
	archStats := analysis.AggregateRR(back)
	if len(liveStats) != len(archStats) {
		t.Fatalf("stats sizes: %d vs %d", len(liveStats), len(archStats))
	}
	for dst, live := range liveStats {
		arch := archStats[dst]
		if arch == nil {
			t.Fatalf("%v missing from archive-derived stats", dst)
		}
		if live.RRResponsive() != arch.RRResponsive() || live.MinDestSlot != arch.MinDestSlot {
			t.Errorf("%v: live (%v,%d) vs archived (%v,%d)", dst,
				live.RRResponsive(), live.MinDestSlot, arch.RRResponsive(), arch.MinDestSlot)
		}
	}
}
