package study

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"recordroute/internal/topology"
)

// compatRun runs Table 1 on the small world the checked-in journal
// belongs to — one shard, so the journal's line order is deterministic —
// journaled at path, and returns the render and how many batches the
// journal carried in.
func compatRun(t *testing.T, path string, resume bool) (render []byte, archived int) {
	t.Helper()
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.02)
	cfg.Seed = 5
	s, err := New(cfg, Options{Rate: 200, ShuffleSeed: 7, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.AttachJournal(path, resume)
	if err != nil {
		t.Fatal(err)
	}
	archived = j.Archived()
	var buf bytes.Buffer
	s.RunResponsiveness().Render(&buf)
	if errs := s.Fleet().ShardErrors(); len(errs) > 0 {
		t.Fatalf("shard errors: %v", errs)
	}
	if err := s.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), archived
}

// TestResumeJournalWrittenBeforeAppendEncoder: journals written by the
// encoding/json writer and by the append encoder are one format.
// testdata/journal_pr12_cut.jsonl is compatRun's journal as commit
// 2cfc7ef wrote it (the last commit to encode results by reflection),
// cut mid-campaign by cutJournalPrefix: the origin's batch and one VP's,
// then a torn line. This commit must accept it, skip what it archived,
// and finish the campaign to the uninterrupted render, leaving a file —
// old records first, its own after them — that resumes in full.
func TestResumeJournalWrittenBeforeAppendEncoder(t *testing.T) {
	dir := t.TempDir()
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_pr12_cut.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "resumed.jsonl")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	fullPath := filepath.Join(dir, "full.jsonl")
	wantRender, _ := compatRun(t, fullPath, false)
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	render, archived := compatRun(t, path, true)
	if archived != 2 {
		t.Fatalf("resume archived %d batches of the old journal's 2", archived)
	}
	if !bytes.Equal(render, wantRender) {
		t.Errorf("render resumed from the old journal differs from the uninterrupted one:\n--- resumed ---\n%s--- uninterrupted ---\n%s", render, wantRender)
	}
	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kept := fixture[:bytes.LastIndexByte(fixture, '\n')+1]
	if !bytes.HasPrefix(resumed, kept) {
		t.Error("resume rewrote the old journal's complete records")
	}
	// Record for record the uninterrupted journal. The bytes of the
	// fixture's records differ in ReplyIPID: they hold the IP-IDs of the
	// counter model the fixture was written under, which counted packets
	// rather than deriving IDs from virtual time.
	if got, want := bytes.Count(resumed, []byte("\n")), bytes.Count(full, []byte("\n")); got != want {
		t.Errorf("continued journal holds %d records, the uninterrupted one %d", got, want)
	}
	render, archived = compatRun(t, path, true)
	if want := bytes.Count(full, []byte(`"t":"vp"`)); archived != want || !bytes.Equal(render, wantRender) {
		t.Errorf("the finished two-writer journal archived %d of %d batches (render equal: %v)",
			archived, want, bytes.Equal(render, wantRender))
	}
}
