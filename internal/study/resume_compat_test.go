package study

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"recordroute/internal/measure"
	"recordroute/internal/topology"
	"recordroute/internal/trace"
)

// compatRun runs the registry entry experiment on the world a checked-in
// journal belongs to — one shard, so the journal's line order is
// deterministic — journaled at path, and returns the render, how many
// batches the journal carried in and the study it ran on.
func compatRun(t *testing.T, path string, resume bool, scale float64, experiment string) (render []byte, archived int, s *Study) {
	t.Helper()
	x, err := Lookup(experiment)
	if err != nil {
		t.Fatal(err)
	}
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(scale)
	cfg.Seed = 5
	s, err = New(cfg, Options{Rate: 200, ShuffleSeed: 7, Shards: 1})
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
	return buf.Bytes(), archived, s
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
	wantRender, _, _ := compatRun(t, fullPath, false, 0.02, "table1")
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	render, archived, _ := compatRun(t, path, true, 0.02, "table1")
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
	render, archived, _ = compatRun(t, path, true, 0.02, "table1")
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
	wantRender, _, _ := compatRun(t, fullPath, false, 0.1, "lsrr")
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	kept := fixture[:bytes.LastIndexByte(fixture, '\n')+1]
	if !bytes.HasPrefix(full, kept) {
		t.Fatal("this commit's uninterrupted journal does not begin with the fixture's records")
	}

	render, archived, _ := compatRun(t, path, true, 0.1, "lsrr")
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

// TestFig3ResumesInsideTraceroute: fig3's traceroute phases resume from
// the journal like every other phase. Its one-shard scale-0.1 journal,
// cut as a kill leaves it after the second of its three traceroute-all
// records (two M-Lab VPs' traces archived, one to probe), resumes
// to the uninterrupted render, and the resumed run probes exactly the
// traces the journal lacked: the archived VPs send nothing, and the
// probes sent are the hops of the traces it journals.
func TestFig3ResumesInsideTraceroute(t *testing.T) {
	type record struct {
		T      string         `json:"t"`
		Kind   string         `json:"kind"`
		VP     string         `json:"vp"`
		Traces []trace.Result `json:"traces"`
	}
	// traced returns the journal's traceroute-all records, with the
	// index of the line each one ends.
	traced := func(data []byte) (recs []record, ends []int) {
		for i, l := range bytes.SplitAfter(data, []byte("\n")) {
			var r record
			if json.Unmarshal(l, &r) == nil && r.T == "vp" && r.Kind == "traceroute-all" {
				recs, ends = append(recs, r), append(ends, i+1)
			}
		}
		return recs, ends
	}
	dir := t.TempDir()
	fullPath, path := filepath.Join(dir, "full.jsonl"), filepath.Join(dir, "cut.jsonl")
	wantRender, _, _ := compatRun(t, fullPath, false, 0.1, "fig3")
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	const keep = 2
	recs, ends := traced(full)
	if len(recs) <= keep {
		t.Fatalf("the journal holds %d traceroute-all records; the cut needs %d", len(recs), keep+1)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	end := ends[keep-1]
	cut := bytes.Join(lines[:end], nil)
	cut = append(cut, lines[end][:len(lines[end])/2]...) // the torn final write
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}

	render, archived, s := compatRun(t, path, true, 0.1, "fig3")
	if !bytes.Equal(render, wantRender) {
		t.Errorf("render resumed inside traceroute-all differs from the uninterrupted one:\n--- resumed ---\n%s--- uninterrupted ---\n%s", render, wantRender)
	}
	if want := bytes.Count(bytes.Join(lines[:end], nil), []byte(`{"t":"vp"`)); archived != want {
		t.Errorf("resume archived %d batches of the cut journal's %d", archived, want)
	}
	sent := make(map[string]uint64)
	var total uint64
	for _, vp := range append(append([]*measure.VantagePoint(nil), s.Camp.VPs...), s.CloudCamp.VPs...) {
		n, _, _, _ := vp.Prober.Stats()
		sent[vp.Name] = n
		total += n
	}
	for _, r := range recs[:keep] {
		if sent[r.VP] != 0 {
			t.Errorf("archived VP %s sent %d probes on resume", r.VP, sent[r.VP])
		}
	}
	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hops uint64
	got, _ := traced(resumed)
	for _, r := range got[keep:] {
		for _, tr := range r.Traces {
			hops += uint64(len(tr.Hops))
		}
	}
	if len(got) != len(recs) || total != hops {
		t.Errorf("resumed journal holds %d traceroute-all records of %d; the run sent %d probes for %d fresh hops",
			len(got), len(recs), total, hops)
	}
}
