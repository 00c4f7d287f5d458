package measure

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"recordroute/internal/probe"
	"recordroute/internal/results"
)

// formatBatch is a batch whose results differ in which fields are set,
// one of them with text that needs escaping.
func formatBatch() []probe.Result {
	a := netip.MustParseAddr
	return []probe.Result{
		{
			Spec: probe.Spec{Dst: a("10.9.8.7"), Kind: probe.PingRR, RRSlots: 9},
			Seq:  65535, SentAt: time.Second, RcvdAt: time.Second + 70*time.Millisecond,
			Type: probe.EchoReply, From: a("10.9.8.7"), ReplyIPID: 12,
			HasRR: true, RR: []netip.Addr{a("10.0.0.1"), a("10.0.0.2")}, RRTotalSlots: 9,
			Attempts: 2, MatchedAttempt: 1,
		},
		{Spec: probe.Spec{Dst: a("10.6.6.6"), Kind: probe.Ping}, SentAt: 5 * time.Second, Type: probe.NoResponse, Attempts: 3},
		{
			Spec: probe.Spec{Dst: a("10.4.4.4"), Kind: probe.PingLSRR, Via: []netip.Addr{a("10.4.0.1")}},
			Type: probe.SendError,
			Err:  errors.New(`send <failed> & "quoted"`),
		},
	}
}

func toWires(rs []probe.Result) []results.Wire {
	ws := make([]results.Wire, len(rs))
	for i, r := range rs {
		ws[i] = results.ToWire(r)
	}
	return ws
}

// TestVPRecordMatchesEncodingJSON pins the journal and stream formats
// to their contract: the hand-assembled vp record is what encoding/json
// renders for journalLine — with results, with groups (an empty group
// among them), with neither, with and without a kind — and the lines
// the stream sink receives are what it renders for StreamRecord, under
// the sink's VP name rather than the archive key.
func TestVPRecordMatchesEncodingJSON(t *testing.T) {
	rs := formatBatch()
	gs := [][]probe.Result{rs[:1], {}, rs[1:]}
	var flat []probe.Result
	for _, g := range gs {
		flat = append(flat, g...)
	}

	path := filepath.Join(t.TempDir(), "fmt.jsonl")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	var batchLines []int // the sink is lent the encoder's buffer: count and copy, never keep
	j.SetStreamSink(func(vp string, lines []byte) {
		batchLines = append(batchLines, bytes.Count(lines, []byte("\n")))
		streamed.Write(lines)
	})

	var want, wantStream bytes.Buffer
	enc, streamEnc := json.NewEncoder(&want), json.NewEncoder(&wantStream)
	meta := testMeta()
	enc.Encode(journalLine{T: "meta", Meta: &meta})
	record := func(line journalLine, sinkVP string, batch []probe.Result) {
		enc.Encode(line)
		for _, r := range batch {
			streamEnc.Encode(results.StreamRecord{VP: sinkVP, Wire: results.ToWire(r)})
		}
	}

	j.recordResults(0, "ping-rr-all", "mlab-0", "mlab-0", rs)
	record(journalLine{T: "vp", Kind: "ping-rr-all", VP: "mlab-0", Results: toWires(rs)}, "mlab-0", rs)

	j.recordResults(3, "ping-batch-vp", `origin#1 <"&>`, "origin", rs[:1])
	record(journalLine{T: "vp", Phase: 3, Kind: "ping-batch-vp", VP: `origin#1 <"&>`, Results: toWires(rs[:1])}, "origin", rs[:1])

	j.recordGroups(1, "ping-all", "origin#0", "origin", gs)
	record(journalLine{T: "vp", Phase: 1, Kind: "ping-all", VP: "origin#0",
		Groups: [][]results.Wire{toWires(gs[0]), toWires(gs[1]), toWires(gs[2])}}, "origin", flat)

	j.recordResults(2, "", "mlab-1", "mlab-1", nil)
	record(journalLine{T: "vp", Phase: 2, VP: "mlab-1"}, "mlab-1", nil)
	j.recordGroups(2, "ping-all", "", "", nil)
	record(journalLine{T: "vp", Phase: 2, Kind: "ping-all"}, "", nil)

	if got := j.Written(); got != int64(want.Len()) {
		t.Errorf("Written() = %d, want the file's %d bytes", got, want.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("journal differs from encoding/json's rendering:\n got %s\nwant %s", got, want.Bytes())
	}
	if !bytes.Equal(streamed.Bytes(), wantStream.Bytes()) {
		t.Errorf("stream lines differ from encoding/json's rendering:\n got %s\nwant %s", streamed.Bytes(), wantStream.Bytes())
	}
	if want := []int{len(rs), 1, len(flat), 0, 0}; !slices.Equal(batchLines, want) {
		t.Errorf("stream sink saw batches of %v lines, want %v (one call per batch, a grouped batch flattened)", batchLines, want)
	}
	if back, err := results.ReadJSONL(&streamed); err != nil || len(back["mlab-0"]) != len(rs) || len(back["origin"]) != 1+len(flat) {
		t.Errorf("stream read back as %d/%d results for mlab-0/origin (%v), want %d/%d",
			len(back["mlab-0"]), len(back["origin"]), err, len(rs), 1+len(flat))
	}

	// And it reads back as what was recorded.
	r, err := ResumeJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if back, ok := r.archivedResults(0, "mlab-0"); !ok || len(back) != len(rs) || back[2].Err == nil || back[2].Err.Error() != rs[2].Err.Error() {
		t.Errorf("archivedResults(0, mlab-0) = %+v, %v", back, ok)
	}
	if back, ok := r.archivedGroups(1, "origin#0"); !ok || len(back) != 3 || len(back[1]) != 0 || len(back[2]) != 2 {
		t.Errorf("archivedGroups(1, origin#0) = %+v, %v", back, ok)
	}
}

// journalBatchSize is the batch recordingJournal records: 150 answered
// ping-RRs and 150 timeouts.
const journalBatchSize = 300

// recordingJournal returns record, which journals one journalBatchSize
// batch — what a daemon job pays per completed VP batch: encoded once
// into the vp record and its stream lines, written to the file, lent to
// the stream sink — on a journal whose encoder buffers one such batch
// has already sized, and check, which fails tb unless every batch
// reached the file and the sink.
func recordingJournal(tb testing.TB) (record, check func()) {
	tb.Helper()
	var batch []probe.Result
	for len(batch) < journalBatchSize {
		batch = append(batch, formatBatch()[:2]...) // an answered ping-RR, a timeout
	}
	j, err := CreateJournal(filepath.Join(tb.TempDir(), "record.jsonl"), testMeta())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { j.Close() })
	streamed := 0
	j.SetStreamSink(func(vp string, lines []byte) { streamed += len(lines) })
	record = func() { j.recordResults(0, "ping-rr-all", "mlab-0", "mlab-0", batch) }
	record() // sizes the encoder's buffers
	return record, func() {
		tb.Helper()
		if j.Degraded() != nil || streamed == 0 {
			tb.Fatalf("degraded %v, %d bytes streamed", j.Degraded(), streamed)
		}
	}
}

// TestJournalRecordAllocs pins the journal's steady state: it keeps its
// encoders, so recording a batch allocates nothing.
func TestJournalRecordAllocs(t *testing.T) {
	record, check := recordingJournal(t)
	if allocs := testing.AllocsPerRun(20, record); allocs != 0 {
		t.Errorf("recordResults allocates %v times per %d-result batch, want 0", allocs, journalBatchSize)
	}
	check()
}

// BenchmarkJournalRecord times one steady-state recordResults
// (TestJournalRecordAllocs pins that it allocates nothing).
func BenchmarkJournalRecord(b *testing.B) {
	record, check := recordingJournal(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
	b.StopTimer()
	check()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*journalBatchSize), "ns/result")
}
