// Package results serializes probe results as JSON lines and parses
// them back — the equivalent of the measurement datasets the paper
// released alongside its tools. One format serves every consumer: the
// campaign journal, the daemon's /stream and the benchmark all carry
// Wire lines, so a journal is also the archive an analysis can be
// re-run from without re-probing (measure.ReadJournal reads one back).
package results

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"recordroute/internal/probe"
)

// Wire is the full-fidelity JSON mirror of probe.Result. It preserves
// every field, so a stream of Wire lines can stand in for the in-memory
// results of a campaign: checkpoints replay them, and the
// resume-equals-uninterrupted property compares them field-for-field
// (DESIGN.md §11). Addresses use netip's text form; times are integer
// virtual-clock nanoseconds, so the round trip is exact. Wire is the
// decode side and the format's definition: results are written by
// AppendWireFields, which renders exactly what encoding/json renders
// for this struct and must follow any change to it.
type Wire struct {
	Dst        netip.Addr   `json:"dst"`
	Kind       int          `json:"kind"`
	TTL        uint8        `json:"ttl,omitempty"`
	RRSlots    int          `json:"rr_slots,omitempty"`
	UDPDstPort uint16       `json:"udp_port,omitempty"`
	Via        []netip.Addr `json:"via,omitempty"`

	Seq            uint16       `json:"seq,omitempty"`
	SentAt         int64        `json:"sent_ns"`
	RcvdAt         int64        `json:"rcvd_ns,omitempty"`
	Type           int          `json:"type"`
	From           netip.Addr   `json:"from"`
	ReplyIPID      uint16       `json:"ipid,omitempty"`
	HasRR          bool         `json:"has_rr,omitempty"`
	RR             []netip.Addr `json:"rr,omitempty"`
	RRTotalSlots   int          `json:"rr_total,omitempty"`
	RRFull         bool         `json:"rr_full,omitempty"`
	QuotedRR       bool         `json:"quoted_rr,omitempty"`
	Attempts       int          `json:"attempts,omitempty"`
	MatchedAttempt int          `json:"matched,omitempty"`
	// Err is the Result.Err message; decoding reconstructs an
	// errors.New value, which compares equal under reflect.DeepEqual to
	// the errors the prober produces.
	Err string `json:"err,omitempty"`
}

// ToWire converts a probe result to its wire mirror. Slices are shared,
// not copied: the wire value is for immediate encoding.
func ToWire(r probe.Result) Wire {
	w := Wire{
		Dst:        r.Dst,
		Kind:       int(r.Kind),
		TTL:        r.TTL,
		RRSlots:    r.Spec.RRSlots,
		UDPDstPort: r.UDPDstPort,
		Via:        r.Via,

		Seq:            r.Seq,
		SentAt:         int64(r.SentAt),
		RcvdAt:         int64(r.RcvdAt),
		Type:           int(r.Type),
		From:           r.From,
		ReplyIPID:      r.ReplyIPID,
		HasRR:          r.HasRR,
		RR:             r.RR,
		RRTotalSlots:   r.RRTotalSlots,
		RRFull:         r.RRFull,
		QuotedRR:       r.QuotedRR,
		Attempts:       r.Attempts,
		MatchedAttempt: r.MatchedAttempt,
	}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	return w
}

// Result converts the wire mirror back to a probe result.
func (w Wire) Result() probe.Result {
	r := probe.Result{
		Spec: probe.Spec{
			Dst:        w.Dst,
			Kind:       probe.Kind(w.Kind),
			TTL:        w.TTL,
			RRSlots:    w.RRSlots,
			UDPDstPort: w.UDPDstPort,
			Via:        w.Via,
		},
		Seq:            w.Seq,
		SentAt:         time.Duration(w.SentAt),
		RcvdAt:         time.Duration(w.RcvdAt),
		Type:           probe.ResponseType(w.Type),
		From:           w.From,
		ReplyIPID:      w.ReplyIPID,
		HasRR:          w.HasRR,
		RR:             w.RR,
		RRTotalSlots:   w.RRTotalSlots,
		RRFull:         w.RRFull,
		QuotedRR:       w.QuotedRR,
		Attempts:       w.Attempts,
		MatchedAttempt: w.MatchedAttempt,
	}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	return r
}

// StreamRecord is one JSONL line of a live campaign stream: a vantage
// point name plus the wire form of one probe result.
type StreamRecord struct {
	VP string `json:"vp"`
	Wire
}

// WriteJSONL appends one JSON line per result to w, in slice order. It
// writes whole lines, some 16 KiB at a time, so a batch of any size
// costs one small buffer rather than a slice grown to the batch.
func WriteJSONL(w io.Writer, vp string, rs []probe.Result) error {
	const chunk = 16 << 10
	var scratch [64]byte
	open := AppendStreamOpen(scratch[:0], vp)
	buf := make([]byte, 0, chunk+1024)
	for i := range rs {
		buf = appendStreamLine(buf, open, &rs[i])
		if len(buf) >= chunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// ReadJSONL parses a JSONL stream back into per-VP result lists,
// preserving line order within each VP. Blank lines are skipped, so a
// stream truncated at a line boundary reads cleanly up to the cut.
func ReadJSONL(r io.Reader) (map[string][]probe.Result, error) {
	out := make(map[string][]probe.Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec StreamRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("results: jsonl line %d: %w", lineNo, err)
		}
		out[rec.VP] = append(out[rec.VP], rec.Wire.Result())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
