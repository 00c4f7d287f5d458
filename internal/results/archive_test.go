package results_test

import (
	"path/filepath"
	"testing"

	"recordroute/internal/analysis"
	"recordroute/internal/measure"
	"recordroute/internal/probe"
	"recordroute/internal/study"
	"recordroute/internal/topology"
)

// TestArchivedResultsReanalyze demonstrates the archive's purpose: run
// a journaled study, read its journal back with measure.ReadJournal,
// and verify the classification re-derived from the archived ping-RR
// batches matches the live one.
func TestArchivedResultsReanalyze(t *testing.T) {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	s, err := study.New(cfg, study.Options{Rate: 200})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	if _, err := s.AttachJournal(path, false); err != nil {
		t.Fatal(err)
	}
	r := s.RunResponsiveness()
	if err := s.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	_, batches, err := measure.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	back := make(map[string][]probe.Result)
	for _, b := range batches {
		if b.Kind == "ping-rr-all" {
			back[b.Key] = b.Results
		}
	}
	if len(back) != len(r.PerVP) {
		t.Fatalf("journal archives %d VPs' ping-RR batches, the live run measured %d", len(back), len(r.PerVP))
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
