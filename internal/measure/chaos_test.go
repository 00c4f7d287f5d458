package measure

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"recordroute/internal/probe"
	"recordroute/internal/trace"
)

// errDiskFull stands in for ENOSPC in the fault-injected writers.
var errDiskFull = errors.New("no space left on device")

// failAfter returns an io.Writer that forwards to w until n bytes have
// passed, fails the write that crosses the boundary (after a partial
// forward — a torn line, like a real full disk), and fails everything
// after that.
type failAfter struct {
	w      io.Writer
	n      int
	failed bool
}

func (fw *failAfter) Write(p []byte) (int, error) {
	if fw.failed {
		return 0, errDiskFull
	}
	if len(p) <= fw.n {
		fw.n -= len(p)
		return fw.w.Write(p)
	}
	k := fw.n
	fw.failed = true
	if k > 0 {
		fw.w.Write(p[:k])
	}
	return k, errDiskFull
}

// withWriteShim installs a journal write shim for the test and restores
// the production path afterwards.
func withWriteShim(t *testing.T, shim func(path string, f *os.File) io.Writer) {
	t.Helper()
	prev := WriteShim
	WriteShim = shim
	t.Cleanup(func() { WriteShim = prev })
}

// TestJournalDegradeOnWriteError is the disk-full regression for the
// journal write path: a failing write must not panic (it would kill the
// shard worker holding the batch), it must flip the journal into the
// degraded state, keep feeding the streaming sink, and leave a valid
// JSONL prefix a later resume accepts.
func TestJournalDegradeOnWriteError(t *testing.T) {
	dir := t.TempDir()
	meta := testMeta()

	// Size the fault: let the meta line through, die 20 bytes into the
	// next record.
	probeJ, err := CreateJournal(filepath.Join(dir, "probe.jsonl"), meta)
	if err != nil {
		t.Fatal(err)
	}
	probeJ.Close()
	healthy, err := os.ReadFile(filepath.Join(dir, "probe.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	withWriteShim(t, func(path string, f *os.File) io.Writer {
		return &failAfter{w: f, n: len(healthy) + 20}
	})
	path := filepath.Join(dir, "camp.jsonl")
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}

	a := netip.MustParseAddr
	rs := []probe.Result{{
		Spec: probe.Spec{Dst: a("10.0.0.1"), Kind: probe.PingRR},
		Type: probe.EchoReply, From: a("10.0.0.1"),
	}}
	sank := 0
	j.SetStreamSink(func(vp string, lines []byte) { sank++ })

	j.beginPhase("ping-rr-all") // torn write: degrades here
	if err := j.Degraded(); err == nil {
		t.Fatal("journal not degraded after failed write")
	} else if !errors.Is(err, errDiskFull) {
		t.Fatalf("Degraded() = %v, want wrapped disk-full", err)
	}
	j.recordResults(0, "ping-rr-all", "mlab-0", "mlab-0", rs) // post-degrade: silent no-op on disk...
	j.recordResults(0, "ping-rr-all", "mlab-1", "mlab-1", rs)
	if sank != 2 {
		t.Fatalf("streaming sink fired %d times after degradation, want 2", sank)
	}
	j.Close()

	// The file holds the healthy prefix plus at most one torn line;
	// resume must accept it and archive nothing from after the fault.
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), string(healthy)) {
		t.Fatalf("degraded journal lost its healthy prefix:\n%q", got)
	}
	r, err := ResumeJournal(path, meta)
	if err != nil {
		t.Fatalf("resume of degraded journal: %v", err)
	}
	defer r.Close()
	if n := r.Archived(); n != 0 {
		t.Fatalf("Archived() = %d from a journal degraded before any batch, want 0", n)
	}
}

// TestJournalDegradedCampaignCompletes runs a whole journaled campaign
// against a disk that fills up mid-run: the campaign must finish with
// no shard errors and produce exactly the batches an un-faulted run
// produces — journaling degrades, results don't.
func TestJournalDegradedCampaignCompletes(t *testing.T) {
	cfg := testConfig()
	meta := testMeta()
	opts := probe.Options{Rate: 100}
	dir := t.TempDir()

	// Baseline: healthy journaled run.
	base := testFleet(t, cfg, meta.Shards)
	bj, err := CreateJournal(filepath.Join(dir, "base.jsonl"), meta)
	if err != nil {
		t.Fatal(err)
	}
	base.AttachJournal(bj)
	base.init()
	var ds []netip.Addr
	for _, d := range base.replicas[0].topo.Dests {
		ds = append(ds, d.Addr)
		if len(ds) == 12 {
			break
		}
	}
	baseRR := base.PingRRAll(ds, opts, nil)
	bj.Close()

	// Faulted run: the journal's disk dies 600 bytes in (mid-campaign,
	// after the meta record).
	withWriteShim(t, func(path string, f *os.File) io.Writer {
		return &failAfter{w: f, n: 600}
	})
	faulted := testFleet(t, cfg, meta.Shards)
	fj, err := CreateJournal(filepath.Join(dir, "faulted.jsonl"), meta)
	if err != nil {
		t.Fatal(err)
	}
	faulted.AttachJournal(fj)
	faultRR := faulted.PingRRAll(ds, opts, nil)
	if fj.Degraded() == nil {
		t.Fatal("journal did not degrade (shim never tripped? raise the campaign size)")
	}
	fj.Close()

	comparePerVP(t, "degraded-journal campaign", baseRR, faultRR)
}

// TestJournalFsyncRoundTrip: the fsync-per-checkpoint option must not
// change what the journal records or how it resumes.
func TestJournalFsyncRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.jsonl")
	meta := testMeta()
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	j.SetFsync(true)
	a := netip.MustParseAddr
	j.beginPhase("ping-rr-all")
	j.recordResults(0, "ping-rr-all", "mlab-0", "mlab-0", []probe.Result{{
		Spec: probe.Spec{Dst: a("10.0.0.1"), Kind: probe.PingRR},
		Type: probe.EchoReply, From: a("10.0.0.1"),
	}})
	if err := j.Degraded(); err != nil {
		t.Fatalf("fsync path degraded the journal: %v", err)
	}
	j.Close()

	r, err := ResumeJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Archived(); n != 1 {
		t.Fatalf("Archived() = %d after fsynced run, want 1", n)
	}
}

// TestJournalResumeTruncationEveryOffset hand-truncates a finished
// journal at every byte offset and resumes each wound: no offset may
// error out or resurrect a partial record — the archive must always be
// exactly the complete vp lines the prefix still holds. This is the
// brute-force version of the torn-tail regression: a crash can cut the
// file anywhere, so every cut must be survivable.
func TestJournalResumeTruncationEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	meta := testMeta()
	j, err := CreateJournal(full, meta)
	if err != nil {
		t.Fatal(err)
	}
	a := netip.MustParseAddr
	rs := []probe.Result{{
		Spec: probe.Spec{Dst: a("10.0.0.1"), Kind: probe.PingRR},
		Type: probe.EchoReply, From: a("10.0.0.1"),
	}}
	j.beginPhase("ping-rr-all")
	j.recordResults(0, "ping-rr-all", "mlab-0", "mlab-0", rs)
	j.recordResults(0, "ping-rr-all", "mlab-1", "mlab-1", rs)
	j.Close()

	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Count vp lines complete at each cut: a vp record only exists once
	// its trailing newline does.
	vpLinesBefore := func(cut int) int {
		n := 0
		for _, line := range strings.SplitAfter(string(data[:cut]), "\n") {
			if strings.HasSuffix(line, "\n") && strings.Contains(line, `"t":"vp"`) {
				n++
			}
		}
		return n
	}

	wound := filepath.Join(dir, "wound.jsonl")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(wound, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := ResumeJournal(wound, meta)
		if err != nil {
			t.Fatalf("cut at byte %d: resume failed: %v", cut, err)
		}
		if got, want := r.Archived(), vpLinesBefore(cut); got != want {
			t.Fatalf("cut at byte %d: Archived() = %d, want %d", cut, got, want)
		}
		r.Close()
	}
}

// TestParallelCancelResume is the measure-layer half of job
// cancellation and deadlines: a context canceled mid-campaign stops
// each shard at its next per-VP checkpoint (after the batch is
// journaled) and the primitive raises the abort, the canceled run's
// journal resumes into a fresh fleet,
// and the resumed campaign reproduces the uninterrupted baseline
// byte-identically — a deadline is a pause, not a loss.
func TestParallelCancelResume(t *testing.T) {
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

	base := newFleet("base.jsonl", false)
	base.init()
	var ds []netip.Addr
	for _, d := range base.replicas[0].topo.Dests {
		ds = append(ds, d.Addr)
		if len(ds) == 12 {
			break
		}
	}
	baseRR := base.PingRRAll(ds, opts, nil)
	base.Journal().Close()

	// Canceled run: the context dies after the second journaled batch,
	// so every shard aborts at its next checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	cut := newFleet("cut.jsonl", false)
	cut.SetContext(ctx)
	batches := 0
	cut.Journal().SetStreamSink(func(vp string, lines []byte) {
		batches++
		if batches == 2 {
			cancel()
		}
	})
	// The primitive the abort struck, and any later one on the same
	// fleet, raise the Canceled payload itself on the caller's goroutine.
	for _, primitive := range []func(){
		func() { cut.PingRRAll(ds, opts, nil) },
		func() { cut.PingAll(ds[:4], 2, opts) },
	} {
		func() {
			defer func() {
				if err, ok := CanceledFrom(recover()); !ok || !errors.Is(err, context.Canceled) {
					t.Errorf("recover = %v, want Canceled{context.Canceled}", err)
				}
			}()
			primitive()
		}()
	}
	cut.Journal().Close()

	// Resume into an un-canceled fleet: the journaled batches are
	// skipped, the rest re-probed, the whole equal to the baseline.
	res := newFleet("cut.jsonl", true)
	if res.Journal().Archived() == 0 {
		t.Fatal("canceled run journaled nothing before aborting")
	}
	resRR := res.PingRRAll(ds, opts, nil)
	res.Journal().Close()
	comparePerVP(t, "resume after cancel", baseRR, resRR)
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (fn writerFunc) Write(p []byte) (int, error) { return fn(p) }

// TestDoubletreeCancelMidPhaseResumes cancels a journaled two-replica
// Doubletree campaign as its first traces record is written, mid-phase:
// the phase must raise the abort before sealing its stop set over the
// rounds that completed, so the resumed journal replays every round and
// reconverges on the uninterrupted run's stop set.
func TestDoubletreeCancelMidPhaseResumes(t *testing.T) {
	cfg, meta := testConfig(), testMeta()
	meta.Shards = 2
	dir := t.TempDir()
	run := func(name string, ctx context.Context, resume bool) []byte {
		t.Helper()
		pc := testFleet(t, cfg, meta.Shards)
		open := CreateJournal
		if resume {
			open = ResumeJournal
		}
		j, err := open(filepath.Join(dir, name), meta)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		pc.AttachJournal(j)
		pc.SetContext(ctx)
		names := pc.VPNames()
		var dests []netip.Addr
		for _, d := range pc.replicas[0].topo.Dests[:16] {
			dests = append(dests, d.Addr)
		}
		sess := trace.NewSession(nil)
		for w := 0; w < 2; w++ {
			wave := make(map[string][]netip.Addr)
			for i, name := range names {
				if i%2 == w {
					wave[name] = dests
				}
			}
			pc.DoubletreeAll(wave, sess, trace.Options{})
		}
		stops, err := sess.Global.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return stops
	}
	want := run("base.jsonl", context.Background(), false)

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	withWriteShim(t, func(_ string, f *os.File) io.Writer {
		return writerFunc(func(p []byte) (int, error) {
			if bytes.Contains(p, []byte(`"traces"`)) {
				once.Do(cancel) // before the write: the record itself is journaled
			}
			return f.Write(p)
		})
	})
	func() {
		defer func() {
			if err, ok := CanceledFrom(recover()); !ok || !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled campaign raised %v, want Canceled{context.Canceled}", err)
			}
		}()
		run("cut.jsonl", ctx, false)
	}()
	_, batches, err := ReadJournal(filepath.Join(dir, "cut.jsonl"))
	if err != nil || len(batches) == 0 {
		t.Fatalf("canceled run journaled %d batches (%v), want its completed rounds", len(batches), err)
	}

	var got []byte
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("resume failed: %v", r)
			}
		}()
		got = run("cut.jsonl", context.Background(), true)
	}()
	if !bytes.Equal(got, want) {
		t.Errorf("resumed stop set of %d bytes, uninterrupted %d", len(got), len(want))
	}
}

// TestCampaignCancelAtPrimitiveStart covers a one-replica fleet inline
// on its roster's engine: a live context lets primitives run, and once
// it is done the next primitive refuses at its start as a Canceled
// panic, on the caller's goroutine.
func TestCampaignCancelAtPrimitiveStart(t *testing.T) {
	topo := testTopo(t)
	c := NewFleet(NewCampaign(topo, unlimitedVPs(topo)[:2]), 1)
	ctx, cancel := context.WithCancel(context.Background())
	c.SetContext(ctx)
	ds := responsiveDests(topo, 4)
	if got := c.PingRRAll(ds, probe.Options{Rate: 100}, nil); len(got) == 0 {
		t.Fatal("live context blocked the campaign")
	}
	cancel()
	func() {
		defer func() {
			if err, ok := CanceledFrom(recover()); !ok || !errors.Is(err, context.Canceled) {
				t.Errorf("recover = %v, want Canceled{context.Canceled}", err)
			}
		}()
		c.PingRRAll(ds, probe.Options{Rate: 100}, nil)
	}()
}
