package study

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"recordroute/internal/measure"
	"recordroute/internal/netsim"
	"recordroute/internal/probe"
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
	after    []uint16 // seqs of one ping per roster VP sent after the campaign
}

// resumeCell is what one resume row varies: the fault plan, the probe
// retry policy, and whether Figure 1 runs after Table 1 — which puts
// flat per-VP phases (ping-RRudp) after the archived destination-sharded
// ones (alias pings).
type resumeCell struct {
	fc       *netsim.FaultConfig
	retries  int
	adaptive bool
	reach    bool
}

// runJournaled builds a study identical to runSharded's cells, attaches
// a journal at path, and runs the Table 1 experiment — and Figure 1
// when c.reach — to completion.
func runJournaled(t *testing.T, seed uint64, c resumeCell, shards int, path string, resume bool) journaledRun {
	t.Helper()
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.15)
	cfg.Seed = seed
	cfg.Faults = c.fc
	s, err := New(cfg, Options{Rate: 200, ShuffleSeed: 7, Shards: shards, Retries: c.retries, Adaptive: c.adaptive})
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
	if c.reach {
		s.RunReachability(run.resp).Render(&buf)
	}
	run.render = buf.Bytes()
	run.errs = len(s.Fleet().ShardErrors())
	if err := s.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	// Probing the roster directly after the campaign (the facade does)
	// must not depend on which of its batches were restored.
	for _, vp := range s.Camp.VPs {
		vp.Prober.StartOne(probe.Spec{Dst: s.Topo.Dests[0].Addr, Kind: probe.Ping}, 0, func(r probe.Result) {
			run.after = append(run.after, r.Seq)
		})
	}
	s.Camp.Eng.Run()
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
// render, identical per-VP result streams, and a journal file holding
// the uninterrupted one's records — across shard counts, with and
// without a fault plan, and with retries and adaptive timeouts under
// loss. The kill is simulated the way it actually wounds a journal: the
// file is cut to a prefix of its lines, mid-line. (The
// shard-panic variant of the same property lives in measure's journal
// tests, where the fault can be injected into a specific replica.)
func TestResumeEqualsUninterrupted(t *testing.T) {
	const seed = 11
	plan := &netsim.FaultConfig{LossProb: 0.05, LossFrac: 0.25, OutageFrac: 0.02, WithdrawFrac: 0.05}
	// Retries with adaptive timeouts under heavy loss, through Table 1
	// and Figure 1: what chaos and the facade's WithRetries turn on. A
	// prober entering a fresh phase after archived ones must hold the
	// same sequence counter and RTT estimate as in the uninterrupted run.
	lossy := resumeCell{fc: &netsim.FaultConfig{LossProb: 0.2, LossFrac: 0.5}, retries: 2, adaptive: true, reach: true}
	rows := []struct {
		name string
		c    resumeCell
		ks   []int
		cuts []float64
	}{
		{"no-faults", resumeCell{}, []int{1, 2, 4}, []float64{0.5}},
		{"fault-plan", resumeCell{fc: plan}, []int{1, 2, 4}, []float64{0.5}},
		{"retries-adaptive", lossy, []int{1, 2}, []float64{0.5, 0.8}},
	}
	for _, row := range rows {
		for _, k := range row.ks {
			for _, cutAt := range row.cuts {
				name := fmt.Sprintf("K%d/%s", k, row.name)
				if len(row.cuts) > 1 {
					name += fmt.Sprintf("/cut%.1f", cutAt)
				}
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					full := filepath.Join(dir, "full.jsonl")
					cut := filepath.Join(dir, "cut.jsonl")

					base := runJournaled(t, seed, row.c, k, full, false)
					if base.errs > 0 {
						t.Fatalf("uninterrupted run reported %d shard errors", base.errs)
					}
					if base.archived != 0 {
						t.Fatalf("fresh journal replayed %d archived batches", base.archived)
					}

					cutJournalPrefix(t, full, cut, cutAt)
					resumed := runJournaled(t, seed, row.c, k, cut, true)
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
						t.Errorf("resumed render differs from uninterrupted:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
							base.render, resumed.render)
					}
					comparePerVP(t, k, base.resp.PerVP, resumed.resp.PerVP)
					sameJournal(t, k, full, cut)
					if !slices.Equal(resumed.after, base.after) {
						t.Errorf("seqs of pings sent after the campaign: resumed %v, uninterrupted %v", resumed.after, base.after)
					}
				})
			}
		}
	}
}

// TestSlowJournaledCampaignResumes runs Table 1 journaled at 0.1 probes
// per second, where the origin phase alone drains for hours of virtual
// time: the journal's phase quantum must be sized to fit it, and the
// journal, cut after its first VP record, must resume to the same render.
func TestSlowJournaledCampaignResumes(t *testing.T) {
	run := func(path string, resume bool) (render []byte, archived int) {
		s, err := New(topology.DefaultConfig(topology.Epoch2016).Scale(0.1), Options{Rate: 0.1, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.AttachJournal(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		if j.Quantum() <= measure.DefaultQuantum {
			t.Fatalf("quantum %v: the origin phase alone drains for longer than %v", j.Quantum(), measure.DefaultQuantum)
		}
		var buf bytes.Buffer
		s.RunResponsiveness().Render(&buf)
		archived = j.Archived()
		if err := s.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), archived
	}
	dir := t.TempDir()
	full, cut := filepath.Join(dir, "full.jsonl"), filepath.Join(dir, "cut.jsonl")
	want, _ := run(full, false)

	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	end := bytes.Index(data, []byte(`{"t":"vp"`))
	if end < 0 {
		t.Fatal("the journal holds no VP record")
	}
	end += bytes.IndexByte(data[end:], '\n') + 1
	if err := os.WriteFile(cut, data[:end], 0o644); err != nil {
		t.Fatal(err)
	}
	got, archived := run(cut, true)
	if archived != 1 {
		t.Errorf("resume replayed %d batches, want the one the cut kept", archived)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed render differs from uninterrupted:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
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
