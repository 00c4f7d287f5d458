package study

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"recordroute/internal/topology"
)

// compatRun runs the registry entry experiment on the world a checked-in
// journal belongs to — one shard, so the journal's line order is
// deterministic — journaled at path, and returns the render and how many
// batches the journal carried in.
func compatRun(t *testing.T, path string, resume bool, scale float64, experiment string) (render []byte, archived int) {
	t.Helper()
	x, err := Lookup(experiment)
	if err != nil {
		t.Fatal(err)
	}
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(scale)
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
	r, err := x.Run(s, Params{})
	if err != nil {
		t.Fatal(err)
	}
	r.Render(&buf)
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
	wantRender, _ := compatRun(t, fullPath, false, 0.02, "table1")
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	render, archived := compatRun(t, path, true, 0.02, "table1")
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
	render, archived = compatRun(t, path, true, 0.02, "table1")
	if want := bytes.Count(full, []byte(`"t":"vp"`)); archived != want || !bytes.Equal(render, wantRender) {
		t.Errorf("the finished two-writer journal archived %d of %d batches (render equal: %v)",
			archived, want, bytes.Equal(render, wantRender))
	}
}

// TestResumeLSRRJournalKeepsKindNumbers: journals record a probe's kind
// by number, and the lsrr entry's source-route phase writes ping-LSRR
// as 6. testdata/journal_lsrr_cut.jsonl.gz is compatRun's lsrr journal
// on a scale-0.1 world as commit 4516c96 wrote it — when number 5 was a
// probe kind of its own — cut by cutJournalPrefix inside that phase.
// This commit must resume it to the very bytes it writes uninterrupted.
func TestResumeLSRRJournalKeepsKindNumbers(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "journal_lsrr_cut.jsonl.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fixture, []byte(`"kind":6`)) {
		t.Fatal("the fixture holds no ping-LSRR record")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "resumed.jsonl")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	fullPath := filepath.Join(dir, "full.jsonl")
	wantRender, _ := compatRun(t, fullPath, false, 0.1, "lsrr")
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	kept := fixture[:bytes.LastIndexByte(fixture, '\n')+1]
	if !bytes.HasPrefix(full, kept) {
		t.Fatal("this commit's uninterrupted journal does not begin with the fixture's records")
	}

	render, archived := compatRun(t, path, true, 0.1, "lsrr")
	if want := bytes.Count(kept, []byte(`"t":"vp"`)); archived != want {
		t.Errorf("resume archived %d batches of the fixture's %d", archived, want)
	}
	if !bytes.Equal(render, wantRender) {
		t.Errorf("render resumed from the fixture differs from the uninterrupted one:\n--- resumed ---\n%s--- uninterrupted ---\n%s", render, wantRender)
	}
	if resumed, err := os.ReadFile(path); err != nil || !bytes.Equal(resumed, full) {
		t.Errorf("the resumed journal differs from the uninterrupted one (read error %v)", err)
	}
}
