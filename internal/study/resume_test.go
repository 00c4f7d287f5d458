package study

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"recordroute/internal/netsim"
	"recordroute/internal/topology"
)

// journaledRun is one cell of the resume property: a journaled study
// run to completion, with its render and how much of it came from the
// journal's archive versus fresh probing.
type journaledRun struct {
	resp     *Responsiveness
	render   []byte
	archived int // batches replayed from the journal
	streamed int // fresh batches seen by the live sink
	errs     int
}

// runJournaled builds a study identical to runSharded's cells, attaches
// a journal at path, and runs the Table 1 experiment to completion.
func runJournaled(t *testing.T, seed uint64, fc *netsim.FaultConfig, shards int, path string, resume bool) journaledRun {
	t.Helper()
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	cfg.Seed = seed
	cfg.Faults = fc
	s, err := New(cfg, Options{Rate: 200, ShuffleSeed: 7, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.AttachJournal(path, resume)
	if err != nil {
		t.Fatal(err)
	}
	run := journaledRun{archived: j.Archived()}
	j.SetStreamSink(func(string, []byte) { run.streamed++ })

	run.resp = s.RunResponsiveness()
	var buf bytes.Buffer
	run.resp.Render(&buf)
	run.render = buf.Bytes()
	run.errs = len(s.Fleet().ShardErrors())
	if err := s.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return run
}

// runDoubletreeJournaled mirrors runJournaled for the doubletree
// experiment.
func runDoubletreeJournaled(t *testing.T, seed uint64, shards int, path string, resume bool) (*DoubletreeResult, []byte, int) {
	t.Helper()
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	cfg.Seed = seed
	s, err := New(cfg, Options{Rate: 200, ShuffleSeed: 7, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.AttachJournal(path, resume)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunDoubletree(120, 3)
	var buf bytes.Buffer
	res.Render(&buf)
	if errs := s.Fleet().ShardErrors(); len(errs) > 0 {
		t.Fatalf("shard errors: %v", errs)
	}
	archived := j.Archived()
	if err := s.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes(), archived
}

// cutJournalPrefix keeps the first frac of the journal's lines plus a
// torn half-line — the prefix a killed process actually leaves.
func cutJournalPrefix(t *testing.T, src, dst string, frac float64) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	keep := int(float64(len(lines)) * frac)
	if keep < 2 || keep >= len(lines) {
		t.Fatalf("journal %s has %d lines; cannot cut at %.2f", src, len(lines), frac)
	}
	var out bytes.Buffer
	for _, l := range lines[:keep] {
		out.Write(l)
	}
	out.Write(lines[keep][:len(lines[keep])/2]) // the torn final write
	if err := os.WriteFile(dst, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDoubletreeResumeEqualsUninterrupted extends the
// checkpoint/resume property to the traceroute engine: a journaled
// doubletree campaign killed mid-run (the journal cut to a prefix,
// mid-line) and resumed must reproduce the uninterrupted run —
// byte-identical render and final global stop set. Archived phases
// replay through trace.Rebuild rather than re-probing, and each
// completed phase's stop-set seal is re-verified byte-for-byte against
// the journal on resume.
func TestDoubletreeResumeEqualsUninterrupted(t *testing.T) {
	const seed = 11
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full.jsonl")
			cut := filepath.Join(dir, "cut.jsonl")

			base, baseRender, archived := runDoubletreeJournaled(t, seed, k, full, false)
			if archived != 0 {
				t.Fatalf("fresh journal replayed %d archived batches", archived)
			}

			cutJournalPrefix(t, full, cut, 0.6)
			resumed, resumedRender, rearchived := runDoubletreeJournaled(t, seed, k, cut, true)
			if rearchived == 0 {
				t.Fatal("resume replayed nothing: the journal cut left no archive")
			}
			if !bytes.Equal(resumedRender, baseRender) {
				t.Errorf("resumed render differs from uninterrupted:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
					baseRender, resumedRender)
			}
			if !bytes.Equal(resumed.StopSetBytes, base.StopSetBytes) {
				t.Errorf("resumed final stop set differs (%d vs %d bytes)",
					len(resumed.StopSetBytes), len(base.StopSetBytes))
			}
		})
	}
}

// TestResumeEqualsUninterrupted is the checkpoint/resume property
// (DESIGN.md §11): a campaign killed mid-run and resumed from its
// journal reproduces the uninterrupted journaled run — byte-identical
// Table 1 render, identical per-VP result streams, and a journal file
// holding the uninterrupted one's records — across shard counts, with
// and without a fault plan. The kill is simulated the way it actually
// wounds a journal: the file is cut to half its lines, mid-line. (The
// shard-panic variant of the same property lives in measure's journal
// tests, where the fault can be injected into a specific replica.)
func TestResumeEqualsUninterrupted(t *testing.T) {
	const seed = 11
	faults := []struct {
		name string
		fc   *netsim.FaultConfig
	}{
		{"no-faults", nil},
		{"fault-plan", &netsim.FaultConfig{LossProb: 0.05, LossFrac: 0.25,
			OutageFrac: 0.02, WithdrawFrac: 0.05}},
	}
	for _, f := range faults {
		for _, k := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("K%d/%s", k, f.name), func(t *testing.T) {
				dir := t.TempDir()
				full := filepath.Join(dir, "full.jsonl")
				cut := filepath.Join(dir, "cut.jsonl")

				base := runJournaled(t, seed, f.fc, k, full, false)
				if base.errs > 0 {
					t.Fatalf("uninterrupted run reported %d shard errors", base.errs)
				}
				if base.archived != 0 {
					t.Fatalf("fresh journal replayed %d archived batches", base.archived)
				}

				cutJournalPrefix(t, full, cut, 0.5)
				resumed := runJournaled(t, seed, f.fc, k, cut, true)
				if resumed.errs > 0 {
					t.Fatalf("resumed run reported %d shard errors", resumed.errs)
				}
				if resumed.archived == 0 {
					t.Fatal("resume replayed nothing: the journal cut left no archive")
				}

				// The resume must actually skip: fresh (streamed) batches
				// plus archived ones cover the VP set exactly once.
				if total := resumed.archived + resumed.streamed; total != base.streamed {
					t.Errorf("archived %d + streamed %d = %d batches, want %d",
						resumed.archived, resumed.streamed, total, base.streamed)
				}

				if !bytes.Equal(resumed.render, base.render) {
					t.Errorf("resumed Table 1 render differs from uninterrupted:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
						base.render, resumed.render)
				}
				comparePerVP(t, k, base.resp.PerVP, resumed.resp.PerVP)
				sameJournal(t, k, full, cut)
			})
		}
	}
}

// sameJournal checks a resumed journal file against the uninterrupted
// one, the torn tail resume dropped and all: at K=1, where one replica
// writes every record in order, the files are equal byte for byte; above
// it replicas interleave their checkpoints, so the two must hold the
// same record lines in some order.
func sameJournal(t *testing.T, k int, want, got string) {
	t.Helper()
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if k > 1 {
		w, g = sortedLines(w), sortedLines(g)
	}
	if !bytes.Equal(w, g) {
		t.Errorf("K=%d: resumed journal (%d bytes) differs from the uninterrupted one (%d bytes)", k, len(g), len(w))
	}
}

// sortedLines returns a JSONL file's lines in sorted order.
func sortedLines(b []byte) []byte {
	lines := bytes.SplitAfter(b, []byte("\n"))
	slices.SortFunc(lines, bytes.Compare)
	return bytes.Join(lines, nil)
}
