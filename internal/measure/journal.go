package measure

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"recordroute/internal/probe"
	"recordroute/internal/results"
	"recordroute/internal/trace"
)

// DefaultQuantum is the virtual-time width of one journaled campaign
// phase. Journaled fleets advance every shard clock to the next quantum
// boundary after each phase, so phase p always starts at exactly p·Q —
// in the original run, and again in a resumed one, regardless of how
// much of the phase the original run completed. That pins every
// clock-derived draw (fault windows, per-packet fault keys) to the same
// values both times, which is what makes resume byte-identical
// (DESIGN.md §11). Virtual time is free: advancing an idle clock costs
// nothing. The quantum only needs to exceed the longest phase's drain
// time; endPhase asserts that loudly rather than corrupting the
// alignment.
const DefaultQuantum = time.Hour

// JournalMeta identifies the campaign a journal belongs to: the
// topology digest (seed, scale, epoch, faults — everything that shapes
// the world) plus every RNG-relevant campaign option. Resuming against
// a journal whose meta differs is refused — replaying another
// campaign's completed VPs would silently mix incompatible streams.
type JournalMeta struct {
	Digest      string        `json:"digest"`
	Shards      int           `json:"shards"`
	Quantum     time.Duration `json:"quantum_ns"`
	Rate        float64       `json:"rate"`
	Timeout     time.Duration `json:"timeout_ns"`
	ShuffleSeed uint64        `json:"shuffle_seed"`
	Retries     int           `json:"retries"`
	Adaptive    bool          `json:"adaptive"`
	// FaultEpoch binds the long-horizon churn clock: an epoch-N journal
	// must never be resumed by an epoch-M campaign, whose route weather
	// (and therefore batch contents) can differ.
	FaultEpoch int `json:"fault_epoch,omitempty"`
}

// journalLine is one JSONL record of a campaign journal. The first
// line is always the meta record; each journaled phase writes one
// phase record when it begins, and one vp record per completed VP
// batch — the incremental result sink. Trace phases carry their traces
// in Traces. Doubletree replays its stop-set effects from them (see
// trace.Rebuild), and ends each phase with one stopset record
// checkpointing the merged global set through the canonical codec, so a
// resumed run can verify it reconverged byte-for-byte. A killed campaign
// leaves a journal that is valid up to its last complete line.
type journalLine struct {
	T       string           `json:"t"` // "meta" | "phase" | "vp" | "stopset"
	Meta    *JournalMeta     `json:"meta,omitempty"`
	Phase   int              `json:"phase"`
	Kind    string           `json:"kind,omitempty"`
	VP      string           `json:"vp,omitempty"`
	Results []results.Wire   `json:"results,omitempty"`
	Groups  [][]results.Wire `json:"groups,omitempty"`
	Traces  []trace.Result   `json:"traces,omitempty"`
	Data    []byte           `json:"data,omitempty"`
}

// JournalBatch is one completed batch of a campaign journal: the phase
// and primitive kind it belongs to, its archive key — a VP name, or
// "vp#shard" for one replica's range of a destination-sharded phase —
// and its contents: flat results, per-destination groups, or traces.
type JournalBatch struct {
	Phase   int
	Kind    string
	Key     string
	Results []probe.Result
	Groups  [][]probe.Result
	Traces  []trace.Result
}

// WriteShim, when non-nil, wraps the writer behind every journal
// opened afterwards — the fault-injection seam the service-level chaos
// harness uses to fail journal writes at a chosen byte without touching
// the filesystem. Production code leaves it nil (writes go straight to
// the file). Not safe to flip while journals are being created; set it
// in a test, restore it with defer.
var WriteShim func(path string, f *os.File) io.Writer

// Journal is a campaign's incremental result sink and checkpoint: it
// streams every completed per-VP batch to disk as a JSONL line and, on
// resume, hands completed batches back so the fleet skips re-probing
// them. Attach one to a ParallelCampaign before its first primitive.
// Methods are safe for concurrent use from shard workers.
//
// Write failures degrade instead of crashing: the first failed write
// disables further journaling, the error is retained (Degraded), and
// the campaign keeps running un-checkpointed — a full disk costs the
// ability to resume, never the job. The file keeps its valid JSONL
// prefix (plus at most one torn line, which resume discards).
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	w        io.Writer // f, possibly wrapped by WriteShim
	meta     JournalMeta
	fsync    bool
	degraded error // first write/sync failure; once set, writes stop
	written  int64 // bytes this process put into the file

	phase      int // next phase index to hand out
	phaseKinds map[int]string
	archived   map[string]*JournalBatch // "phase|vp" → completed batch
	stopsets   map[int][]byte           // phase → codec bytes of the merged stop set
	streamSink func(vp string, lines []byte)
	encoders   []*vpEncoder // idle encoders; their buffers outlive GC cycles, which a sync.Pool's do not
}

func vpKey(phase int, vp string) string { return fmt.Sprintf("%d|%s", phase, vp) }

// CreateJournal starts a fresh journal at path (truncating any previous
// one) and writes the meta record.
func CreateJournal(path string, meta JournalMeta) (*Journal, error) {
	if meta.Quantum <= 0 {
		meta.Quantum = DefaultQuantum
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	j := newJournal(nil, meta)
	j.attach(f, path)
	j.encode(journalLine{T: "meta", Meta: &meta})
	if j.degraded != nil {
		f.Close()
		return nil, j.degraded
	}
	return j, nil
}

// ResumeJournal loads the journal at path and prepares it for the
// campaign to continue: completed VP batches become the archive the
// fleet skips, a trailing partial line (the usual wound of a kill) is
// discarded, and further records append after the last complete one.
// The stored meta must equal the caller's — a digest or option
// mismatch means the journal belongs to a different campaign and is
// refused. A missing file degrades to CreateJournal, so "resume" is
// safe to use unconditionally.
func ResumeJournal(path string, meta JournalMeta) (*Journal, error) {
	if meta.Quantum <= 0 {
		meta.Quantum = DefaultQuantum
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CreateJournal(path, meta)
	}
	if err != nil {
		return nil, err
	}
	jf, err := parseJournal(data)
	if err != nil {
		return nil, fmt.Errorf("measure: journal %s: %w", path, err)
	}
	if jf.meta == nil {
		// Nothing usable (empty file or a cut within the meta line):
		// start over.
		return CreateJournal(path, meta)
	}
	if *jf.meta != meta {
		return nil, fmt.Errorf("measure: journal %s belongs to a different campaign (meta %+v, want %+v)",
			path, *jf.meta, meta)
	}

	j := newJournal(nil, meta)
	j.phaseKinds, j.stopsets = jf.phaseKinds, jf.stopsets
	for i := range jf.batches {
		b := &jf.batches[i]
		j.archived[vpKey(b.Phase, b.Key)] = b
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(jf.valid)); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(int64(jf.valid), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	j.attach(f, path)
	return j, nil
}

// ReadJournal reads the campaign journal at path without opening it
// for writing: its meta and its completed batches in file order, up to
// the torn tail a kill may leave. It is how an archived campaign's raw
// results are analyzed again.
func ReadJournal(path string) (JournalMeta, []JournalBatch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return JournalMeta{}, nil, err
	}
	jf, err := parseJournal(data)
	if err == nil && jf.meta == nil {
		err = fmt.Errorf("no meta record")
	}
	if err != nil {
		return JournalMeta{}, nil, fmt.Errorf("measure: journal %s: %w", path, err)
	}
	return *jf.meta, jf.batches, nil
}

// journalFile is a parsed journal: every record before its first
// incomplete or corrupt line.
type journalFile struct {
	meta       *JournalMeta // nil when no meta record is complete
	phaseKinds map[int]string
	batches    []JournalBatch
	stopsets   map[int][]byte // phase → codec bytes of the merged stop set
	valid      int            // byte offset after the last complete record
}

// parseJournal parses journal bytes. A trailing partial line (the usual
// wound of a kill) or a corrupt line ends the parse, keeping the prefix
// before it; an unknown record type is an error.
func parseJournal(data []byte) (journalFile, error) {
	jf := journalFile{phaseKinds: make(map[int]string), stopsets: make(map[int][]byte)}
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		line := data[off : off+nl]
		off += nl + 1
		if len(line) == 0 {
			jf.valid = off
			continue
		}
		var rec journalLine
		if err := json.Unmarshal(line, &rec); err != nil {
			break
		}
		switch rec.T {
		case "meta":
			if rec.Meta == nil {
				return jf, fmt.Errorf("meta record without meta")
			}
			jf.meta = rec.Meta
		case "phase":
			jf.phaseKinds[rec.Phase] = rec.Kind
		case "vp":
			b := JournalBatch{Phase: rec.Phase, Kind: rec.Kind, Key: rec.VP, Traces: rec.Traces}
			for _, w := range rec.Results {
				b.Results = append(b.Results, w.Result())
			}
			for _, g := range rec.Groups {
				var rs []probe.Result
				for _, w := range g {
					rs = append(rs, w.Result())
				}
				b.Groups = append(b.Groups, rs)
			}
			jf.batches = append(jf.batches, b)
		case "stopset":
			jf.stopsets[rec.Phase] = rec.Data
		default:
			return jf, fmt.Errorf("unknown record type %q", rec.T)
		}
		jf.valid = off
	}
	return jf, nil
}

func newJournal(f *os.File, meta JournalMeta) *Journal {
	j := &Journal{
		meta:       meta,
		phaseKinds: make(map[int]string),
		archived:   make(map[string]*JournalBatch),
		stopsets:   make(map[int][]byte),
	}
	if f != nil {
		j.attach(f, f.Name())
	}
	return j
}

// attach binds the journal to its open file, routing writes through
// the chaos shim when one is installed.
func (j *Journal) attach(f *os.File, path string) {
	j.f = f
	j.w = io.Writer(f)
	if WriteShim != nil {
		j.w = WriteShim(path, f)
	}
}

// Meta returns the journal's campaign identity.
func (j *Journal) Meta() JournalMeta { return j.meta }

// SetFsync makes every checkpoint record durable before the campaign
// moves on: each journaled line is followed by an fsync, so even a
// power loss (not just a process kill) keeps every completed batch.
// Off by default — the OS page cache already survives a SIGKILL, which
// is the common wound; fsync buys the rarer machine-crash case at a
// per-checkpoint I/O cost. Not part of JournalMeta: durability policy
// does not change the campaign's results, so resuming with a different
// setting is legal.
func (j *Journal) SetFsync(on bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.fsync = on
}

// Degraded returns the first journal write/sync failure, or nil while
// the journal is healthy. A degraded journal has stopped recording —
// the campaign's remaining batches exist only in memory and a crash
// after degradation re-probes them on resume — but its on-disk prefix
// stays valid for resume.
func (j *Journal) Degraded() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// Quantum returns the phase quantum.
func (j *Journal) Quantum() time.Duration { return j.meta.Quantum }

// Archived returns how many completed VP batches the journal carried
// in from a previous run.
func (j *Journal) Archived() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.archived)
}

// SetStreamSink installs fn as the live streaming consumer: once per
// freshly completed VP batch (archived batches replayed from a previous
// run are not re-streamed), serialized under the journal lock and after
// the batch's journal write, it receives the batch as
// results.StreamRecord lines — the bytes results.AppendJSONL renders,
// cut from the encoding the vp record was built from rather than encoded
// again. lines is the encoder's own buffer, valid during the call only.
func (j *Journal) SetStreamSink(fn func(vp string, lines []byte)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.streamSink = fn
}

// Written returns how many bytes this process has put into the journal
// file (a resumed journal's inherited prefix is not counted).
func (j *Journal) Written() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.written
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// beginPhase opens the next journaled phase and returns its index. A
// resumed journal knows what kind each phase had: a mismatch means the
// resumed process is running a different workload against the journal,
// which would mis-align every later phase — that is a programming
// error, reported loudly.
func (j *Journal) beginPhase(kind string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.phase
	j.phase++
	if prev, ok := j.phaseKinds[p]; ok {
		if prev != kind {
			panic(fmt.Sprintf("measure: journal resume mismatch: phase %d was %q, replay runs %q", p, prev, kind))
		}
	} else {
		j.phaseKinds[p] = kind
		j.encode(journalLine{T: "phase", Phase: p, Kind: kind})
	}
	return p
}

// archivedResults returns the completed flat batch for (phase, vp)
// from a resumed journal, if present.
func (j *Journal) archivedResults(phase int, vp string) ([]probe.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	a := j.archived[vpKey(phase, vp)]
	if a == nil || a.Groups != nil || a.Traces != nil {
		return nil, false
	}
	return a.Results, true
}

// archivedGroups is archivedResults for grouped batches.
func (j *Journal) archivedGroups(phase int, vp string) ([][]probe.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	a := j.archived[vpKey(phase, vp)]
	if a == nil || a.Groups == nil {
		return nil, false
	}
	return a.Groups, true
}

// recordResults journals one freshly completed flat batch under an
// archive key and feeds the streaming sink, which sees it as sinkVP. The
// two differ for destination-sharded single-VP phases: they checkpoint
// each shard's range separately (key "vp#shard", so resume restores
// exactly the ranges that completed) while the sink — which speaks real
// VP names to live consumers — receives the batch as the VP itself.
func (j *Journal) recordResults(phase int, kind, key, sinkVP string, rs []probe.Result) {
	e := j.beginVP(phase, kind, key, sinkVP, len(rs))
	if len(rs) > 0 {
		e.line = append(e.line, `,"results":`...)
		e.array(rs)
	}
	j.finishVP(e, sinkVP)
}

// archivedTraces returns the completed traces for (phase, vp) from a
// resumed journal, if present.
func (j *Journal) archivedTraces(phase int, vp string) ([]trace.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	a := j.archived[vpKey(phase, vp)]
	if a == nil || a.Traces == nil {
		return nil, false
	}
	return a.Traces, true
}

// recordTraces journals one VP's freshly completed traces under key.
// The streaming sink is not fed: it speaks probe.Result, and traces are
// consumed through their renders, not streamed.
func (j *Journal) recordTraces(phase int, kind, key, _ string, trs []trace.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.encode(journalLine{T: "vp", Phase: phase, Kind: kind, VP: key, Traces: trs})
}

// checkStopSet closes a doubletree phase: on a fresh phase it
// journals the merged global stop set's codec bytes as the phase's
// checkpoint; on a resumed phase it verifies the re-merged set
// reproduced the archived bytes exactly. A mismatch means the replay
// diverged from the original run — the determinism contract is
// broken — which is a programming error, reported loudly like a
// phase-kind mismatch.
func (j *Journal) checkStopSet(phase int, data []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if prev, ok := j.stopsets[phase]; ok {
		if !bytes.Equal(prev, data) {
			panic(fmt.Sprintf("measure: journal resume mismatch: phase %d stop set diverged (%d bytes archived, %d rebuilt)",
				phase, len(prev), len(data)))
		}
		return
	}
	j.stopsets[phase] = data
	j.encode(journalLine{T: "stopset", Phase: phase, Data: data})
}

// recordGroups journals one freshly completed grouped batch; see
// recordResults.
func (j *Journal) recordGroups(phase int, kind, key, sinkVP string, gs [][]probe.Result) {
	n := 0
	for _, g := range gs {
		n += len(g)
	}
	e := j.beginVP(phase, kind, key, sinkVP, n)
	sep := `,"groups":[`
	for _, g := range gs {
		e.line = append(e.line, sep...)
		e.array(g)
		sep = ","
	}
	if len(gs) > 0 {
		e.line = append(e.line, ']')
	}
	j.finishVP(e, sinkVP)
}

// vpEncoder builds one vp record in line and, when a stream sink wants
// them, the batch's stream lines from the same per-result bytes: each
// result is encoded once (results.AppendWireFields) into the record and
// that span is copied behind the stream line's opening. The output is
// what encoding/json renders for journalLine and results.StreamRecord
// (TestVPRecordMatchesEncodingJSON). Encoders belong to their journal —
// a VP batch is tens of kilobytes, encoded on shard goroutines outside
// the journal lock — and are handed back in finishVP.
type vpEncoder struct {
	line    []byte
	streams bool   // a stream sink is installed
	open    []byte // what opens each stream line: `{"vp":"<name>",`
	lines   []byte // the stream lines, lent to the sink
}

// beginVP starts the vp record of one completed batch of n results, up
// to and including its "vp" member. A new encoder's buffers are sized
// for the batch at once: append would get there a quarter at a time,
// allocating five times the bytes in all.
func (j *Journal) beginVP(phase int, kind, key, sinkVP string, n int) *vpEncoder {
	j.mu.Lock()
	var e *vpEncoder
	if idle := len(j.encoders); idle > 0 {
		e, j.encoders = j.encoders[idle-1], j.encoders[:idle-1]
	} else {
		e = new(vpEncoder)
	}
	e.streams = j.streamSink != nil
	j.mu.Unlock()
	e.lines = e.lines[:0]
	if e.streams {
		e.open = results.AppendStreamOpen(e.open[:0], sinkVP)
		e.lines = slices.Grow(e.lines, n*(256+len(e.open)))
	}
	e.line = strconv.AppendInt(append(slices.Grow(e.line[:0], 64+n*256), `{"t":"vp","phase":`...), int64(phase), 10)
	if kind != "" {
		e.line = results.AppendString(append(e.line, `,"kind":`...), kind)
	}
	if key != "" {
		e.line = results.AppendString(append(e.line, `,"vp":`...), key)
	}
	return e
}

// array appends rs to the record as a JSON array of Wire objects and,
// if the batch streams, as one stream line each.
func (e *vpEncoder) array(rs []probe.Result) {
	e.line = append(e.line, '[')
	for i := range rs {
		if i > 0 {
			e.line = append(e.line, ',')
		}
		e.line = append(e.line, '{')
		fields := len(e.line)
		e.line = results.AppendWireFields(e.line, &rs[i])
		e.line = append(e.line, '}')
		if e.streams {
			e.lines = append(e.lines, e.open...)
			e.lines = append(e.lines, e.line[fields:]...)
			e.lines = append(e.lines, '\n')
		}
	}
	e.line = append(e.line, ']')
}

// finishVP closes the record and commits the batch: the journal write
// and the sink run under the lock, in that order, so the file and the
// stream see batches in one order; everything before was encoded
// outside it.
func (j *Journal) finishVP(e *vpEncoder, sinkVP string) {
	e.line = append(e.line, "}\n"...)
	j.mu.Lock()
	defer j.mu.Unlock()
	defer func() { j.encoders = append(j.encoders, e) }() // even if the sink panics
	j.write(e.line)
	if j.streamSink != nil && e.streams {
		j.streamSink(sinkVP, e.lines)
	}
}

// encode writes one cold record — meta, phase, traces, stopset —
// through encoding/json (caller holds j.mu). Results never come this
// way: vp records of results are built by vpEncoder.
func (j *Journal) encode(line journalLine) {
	if j.w == nil || j.degraded != nil {
		return
	}
	b, err := json.Marshal(line)
	if err != nil {
		j.degraded = fmt.Errorf("measure: journal write: %w", err)
		return
	}
	j.write(append(b, '\n'))
}

// write puts one complete record into the file as a single Write
// (caller holds j.mu). A write or sync failure must not panic — it
// would kill a worker goroutine over a full disk — so the journal
// degrades instead: the error is retained, further writes are disabled,
// and the campaign continues with its stream sink intact but no
// checkpoint coverage from here on. The file is left with its valid
// prefix plus at most one torn line, which ResumeJournal discards.
func (j *Journal) write(rec []byte) {
	if j.w == nil || j.degraded != nil {
		return
	}
	n, err := j.w.Write(rec)
	j.written += int64(n)
	if err != nil {
		j.degraded = fmt.Errorf("measure: journal write: %w", err)
		return
	}
	if j.fsync && j.f != nil {
		if err := j.f.Sync(); err != nil {
			j.degraded = fmt.Errorf("measure: journal fsync: %w", err)
		}
	}
}
