package measure

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"recordroute/internal/probe"
)

func testMeta() JournalMeta {
	return JournalMeta{
		Digest:      testConfig().Digest(),
		Shards:      3,
		Quantum:     DefaultQuantum,
		Rate:        100,
		Timeout:     2 * time.Second,
		ShuffleSeed: 7,
	}
}

// TestJournalResumeRoundTrip pins the checkpoint file mechanics: a
// journal written by one process hands every completed batch back to
// the next one, with phase kinds remembered and batches addressable by
// (phase, vp).
func TestJournalResumeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.jsonl")
	meta := testMeta()

	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	a := netip.MustParseAddr
	rs := []probe.Result{{
		Spec: probe.Spec{Dst: a("10.0.0.1"), Kind: probe.PingRR},
		Type: probe.EchoReply, From: a("10.0.0.1"), ReplyIPID: 9,
	}}
	gs := [][]probe.Result{{{
		Spec: probe.Spec{Dst: a("10.0.0.2"), Kind: probe.Ping},
		Type: probe.NoResponse,
	}}}
	if p := j.beginPhase("ping-rr-all"); p != 0 {
		t.Fatalf("first phase = %d, want 0", p)
	}
	j.recordResults(0, "ping-rr-all", "mlab-0", "mlab-0", rs)
	if p := j.beginPhase("ping-all"); p != 1 {
		t.Fatalf("second phase = %d, want 1", p)
	}
	j.recordGroups(1, "ping-all", "mlab-1", "mlab-1", gs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := ResumeJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Archived(); got != 2 {
		t.Fatalf("Archived() = %d, want 2", got)
	}
	back, ok := r.archivedResults(0, "mlab-0")
	if !ok || len(back) != 1 || back[0].Dst != rs[0].Dst || back[0].ReplyIPID != 9 {
		t.Fatalf("archivedResults(0, mlab-0) = %+v, %v", back, ok)
	}
	if _, ok := r.archivedGroups(0, "mlab-0"); ok {
		t.Error("flat batch answered a groups lookup")
	}
	bg, ok := r.archivedGroups(1, "mlab-1")
	if !ok || len(bg) != 1 || len(bg[0]) != 1 || bg[0][0].Dst != gs[0][0].Dst {
		t.Fatalf("archivedGroups(1, mlab-1) = %+v, %v", bg, ok)
	}
	// The replay must re-open the same phases in the same order; a kind
	// mismatch is a different workload and must refuse loudly.
	if p := r.beginPhase("ping-rr-all"); p != 0 {
		t.Fatalf("resumed first phase = %d, want 0", p)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("phase-kind mismatch did not panic")
			}
		}()
		r.beginPhase("ping-rr-udp-all") // journal says phase 1 was ping-all
	}()
}

// TestJournalResumeMetaMismatch: a journal written for a different
// campaign (different digest or options) must be refused, not replayed.
func TestJournalResumeMetaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.jsonl")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := testMeta()
	other.ShuffleSeed++
	if _, err := ResumeJournal(path, other); err == nil {
		t.Fatal("meta mismatch accepted")
	} else if !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestJournalResumeTruncatedTail: a kill mid-write leaves a partial
// final line. Resume must keep every complete record, discard the
// wound, and leave the file truncated so appended records stay valid
// JSONL.
func TestJournalResumeTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.jsonl")
	meta := testMeta()
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	j.beginPhase("ping-rr-all")
	a := netip.MustParseAddr
	j.recordResults(0, "ping-rr-all", "mlab-0", "mlab-0", []probe.Result{{
		Spec: probe.Spec{Dst: a("10.0.0.1"), Kind: probe.PingRR},
		Type: probe.EchoReply, From: a("10.0.0.1"),
	}})
	j.Close()

	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wound := append(append([]byte{}, clean...),
		[]byte(`{"t":"vp","phase":0,"kind":"ping-rr-all","vp":"mlab-1","resu`)...)
	if err := os.WriteFile(path, wound, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := ResumeJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Archived(); got != 1 {
		t.Fatalf("Archived() = %d after truncated tail, want 1", got)
	}
	if _, ok := r.archivedResults(0, "mlab-1"); ok {
		t.Error("partial line resurrected as an archived batch")
	}
	r.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(clean) {
		t.Errorf("file not truncated back to the last complete line:\n%q\nwant\n%q", after, clean)
	}
}

// TestJournalResumeMissingFile: resuming with no journal on disk is a
// fresh start, so callers can pass -resume unconditionally.
func TestJournalResumeMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.jsonl")
	j, err := ResumeJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := j.Archived(); got != 0 {
		t.Fatalf("Archived() = %d on a fresh journal", got)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal file not created: %v", err)
	}
}

// TestJournalShardPanicResume is the shard-failure half of the
// resume-equals-uninterrupted property (DESIGN.md §11), at the measure
// layer where the fault can be injected precisely: a shard that dies
// mid-campaign aborts the primitive, losing its current-phase batches,
// and a fresh fleet
// resumed from the journal re-probes exactly those, reproducing the
// uninterrupted journaled run field for field, and its journal file
// ends up holding the uninterrupted one's record lines (in another
// order: replicas interleave their checkpoints).
func TestJournalShardPanicResume(t *testing.T) {
	cfg := testConfig()
	meta := testMeta()
	opts := probe.Options{Rate: 100}

	dir := t.TempDir()
	newFleet := func(name string, resume bool) *ParallelCampaign {
		t.Helper()
		pc := testFleet(t, cfg, meta.Shards)
		var j *Journal
		var err error
		if resume {
			j, err = ResumeJournal(filepath.Join(dir, name), meta)
		} else {
			j, err = CreateJournal(filepath.Join(dir, name), meta)
		}
		if err != nil {
			t.Fatal(err)
		}
		pc.AttachJournal(j)
		return pc
	}

	dests := func(pc *ParallelCampaign) []netip.Addr {
		pc.init()
		out := make([]netip.Addr, 0, 10)
		for _, d := range pc.replicas[0].topo.Dests {
			out = append(out, d.Addr)
			if len(out) == 10 {
				break
			}
		}
		return out
	}

	// Uninterrupted journaled run: the baseline both halves compare to.
	base := newFleet("base.jsonl", false)
	ds := dests(base)
	baseRR := base.PingRRAll(ds, opts, nil)
	basePing := base.PingAll(ds[:4], 2, opts)
	base.Journal().Close()

	// Crashed run: phase 0 completes, then shard 1 dies early in phase
	// 1, losing its ping groups but keeping its journaled phase-0 batch.
	crash := newFleet("crash.jsonl", false)
	crashRR := crash.PingRRAll(ds, opts, nil)
	crash.replicas[1].Eng.Schedule(0, func() { panic("injected shard fault") })
	func() {
		defer func() {
			if se, ok := recover().(ShardError); !ok || se.Shard != 1 {
				t.Fatalf("crashed phase 1 raised %v, want shard 1's ShardError", se)
			}
		}()
		crash.PingAll(ds[:4], 2, opts)
	}()
	comparePerVP(t, "crashed phase 0", baseRR, crashRR)
	crash.Journal().Close()

	// Resume: a fresh fleet over the same config replays the journal.
	// Phase 0 must come back entirely from the archive; phase 1 re-runs
	// only what the dead shard lost.
	res := newFleet("crash.jsonl", true)
	if got := res.Journal().Archived(); got == 0 {
		t.Fatal("resumed journal carries no archived batches")
	}
	resRR := res.PingRRAll(ds, opts, nil)
	resPing := res.PingAll(ds[:4], 2, opts)
	res.Journal().Close()
	if want, got := sortedLines(t, filepath.Join(dir, "base.jsonl")), sortedLines(t, filepath.Join(dir, "crash.jsonl")); !bytes.Equal(got, want) {
		t.Errorf("resumed journal's records differ from the uninterrupted one's (%d vs %d bytes)", len(got), len(want))
	}

	comparePerVP(t, "resumed ping-rr-all", baseRR, resRR)
	if len(resPing) != len(basePing) {
		t.Fatalf("resumed ping-all covers %d VPs, want %d", len(resPing), len(basePing))
	}
	for vp, want := range basePing {
		got := resPing[vp]
		if len(got) != len(want) {
			t.Errorf("VP %s: %d ping groups, want %d", vp, len(got), len(want))
			continue
		}
		for i := range want {
			comparePerVP(t, "resumed ping-all "+vp, map[string][]probe.Result{vp: want[i]},
				map[string][]probe.Result{vp: got[i]})
		}
	}
}

// sortedLines returns a journal file's lines in sorted order.
func sortedLines(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	slices.SortFunc(lines, bytes.Compare)
	return bytes.Join(lines, nil)
}

// TestJournalSeriesPhaseRefused: a journal written before alias
// collection went through PingBatchVP holds that phase as
// "ping-series-vp", its range-keyed records being each shard's slice of
// a round-major series over addresses grouped by origin AS — not the
// contiguous destination ranges PingBatchVP keys the same way. Resuming
// one must stop at that phase with a resume mismatch, never restore its
// slices into destination ranges.
func TestJournalSeriesPhaseRefused(t *testing.T) {
	const kind = "ping-series-vp"
	cfg, meta := testConfig(), testMeta()
	meta.Shards = 2
	opts := probe.Options{Rate: 100}
	path := filepath.Join(t.TempDir(), "old.jsonl")

	// The old journal: an origin phase as both versions write it, then
	// the alias phase as the old one did, through the Journal API.
	old := testFleet(t, cfg, 2)
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	old.AttachJournal(j)
	origin := old.vpNames[1]
	var dests []netip.Addr
	for _, d := range old.src.Dests[:8] {
		dests = append(dests, d.Addr)
	}
	old.PingBatchVP(origin, dests, 2, opts)
	phase := j.beginPhase(kind)
	for s := 0; s < 2; s++ { // shard s sampled every other address
		var rs []probe.Result
		for round := 0; round < 5; round++ {
			for i := s; i < len(dests); i += 2 {
				rs = append(rs, probe.Result{Spec: probe.Spec{Dst: dests[i], Kind: probe.Ping}, Type: probe.EchoReply, From: dests[i]})
			}
		}
		j.recordResults(phase, kind, rangeKey(origin, s), origin, rs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	pc := testFleet(t, cfg, 2)
	r, err := ResumeJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pc.AttachJournal(r)
	pc.PingBatchVP(origin, dests, 2, opts) // restored from the archive
	for _, rep := range pc.replicas {
		if n := injected(rep.Net); n != 0 {
			t.Fatalf("the archived origin phase re-sent %d probes on shard %d", n, rep.idx)
		}
	}
	var grouped [][]probe.Result
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "journal resume mismatch") {
				t.Errorf("resuming the old alias phase: recovered %q, want a journal resume mismatch", msg)
			}
		}()
		grouped = pc.PingBatchVP(origin, dests, 5, opts)
	}()
	if grouped != nil {
		t.Errorf("the old alias phase came back as %d destination groups", len(grouped))
	}
	for _, rep := range pc.replicas {
		if n := injected(rep.Net); n != 0 {
			t.Errorf("the refused phase sent %d probes on shard %d", n, rep.idx)
		}
	}
}
