package results

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"recordroute/internal/probe"
)

// wireSamples covers every field class of probe.Result: each probe
// kind, response type, options payloads, retransmission metadata, and a
// SendError with a cause.
func wireSamples() []probe.Result {
	a := netip.MustParseAddr
	return []probe.Result{
		{
			Spec:   probe.Spec{Dst: a("10.1.2.3"), Kind: probe.Ping},
			Seq:    7,
			SentAt: 125 * time.Millisecond, RcvdAt: 143 * time.Millisecond,
			Type: probe.EchoReply, From: a("10.1.2.3"), ReplyIPID: 991,
			Attempts: 1, MatchedAttempt: 1,
		},
		{
			Spec: probe.Spec{Dst: a("10.9.8.7"), Kind: probe.PingRR, RRSlots: 9},
			Seq:  65535, SentAt: time.Second, RcvdAt: time.Second + 70*time.Millisecond,
			Type: probe.EchoReply, From: a("10.9.8.7"),
			HasRR: true, RR: []netip.Addr{a("10.0.0.1"), a("10.0.0.2")},
			RRTotalSlots: 9, RRFull: false,
			Attempts: 2, MatchedAttempt: 1, ReplyIPID: 12,
		},
		{
			Spec: probe.Spec{Dst: a("172.16.5.5"), Kind: probe.PingRRUDP, UDPDstPort: 40999},
			Seq:  3, SentAt: 2 * time.Second, RcvdAt: 2*time.Second + 9*time.Millisecond,
			Type: probe.PortUnreachable, From: a("172.16.5.5"),
			HasRR: true, QuotedRR: true, RR: []netip.Addr{a("10.0.0.9")},
			RRTotalSlots: 9, RRFull: true, Attempts: 1, MatchedAttempt: 1,
		},
		{
			Spec: probe.Spec{Dst: a("192.168.1.1"), Kind: probe.TTLPingRR, TTL: 11},
			Seq:  40, SentAt: 3 * time.Second,
			Type: probe.TimeExceeded, From: a("10.2.2.2"), QuotedRR: true,
			HasRR: true, RR: []netip.Addr{a("10.2.2.1")}, RRTotalSlots: 9,
			Attempts: 1, MatchedAttempt: 1,
		},
		{
			Spec: probe.Spec{Dst: a("10.4.4.4"), Kind: probe.Ping},
			Seq:  41, SentAt: 4 * time.Second, RcvdAt: 4*time.Second + time.Millisecond,
			Type: probe.EchoReply, From: a("10.4.4.4"), ReplyIPID: 4001,
			Attempts: 2, MatchedAttempt: 2,
		},
		{
			Spec: probe.Spec{Dst: a("10.6.6.6"), Kind: probe.PingLSRR,
				Via: []netip.Addr{a("10.6.0.1"), a("10.6.0.2")}},
			Seq: 42, SentAt: 5 * time.Second, Type: probe.NoResponse, Attempts: 3,
		},
		{
			Spec: probe.Spec{Dst: a("10.7.7.7"), Kind: probe.Ping},
			Type: probe.SendError, SentAt: 6 * time.Second,
			Err: probe.ErrTooManyOutstanding,
		},
	}
}

// TestJSONLRoundTrip pins the full-fidelity contract: per-VP streams
// come back reflect.DeepEqual to what went in — including SentAt, Seq,
// Via, attempt metadata, and error causes, all of which the pipe
// format drops.
func TestJSONLRoundTrip(t *testing.T) {
	in := map[string][]probe.Result{
		"mlab-01": wireSamples(),
		"plab-02": wireSamples()[:2],
	}
	var buf bytes.Buffer
	for _, vp := range []string{"mlab-01", "plab-02"} {
		if err := WriteJSONL(&buf, vp, in[vp]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d VPs out, want %d", len(out), len(in))
	}
	for vp, want := range in {
		got := out[vp]
		if len(got) != len(want) {
			t.Fatalf("VP %s: %d results, want %d", vp, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("VP %s result %d differs:\n in: %+v\nout: %+v", vp, i, want[i], got[i])
			}
		}
	}
}

// TestJSONLTruncatedTail: a stream cut mid-line (the shape a killed
// campaign leaves behind) must fail loudly, while a cut at a line
// boundary reads cleanly — the checkpoint loader relies on both.
func TestJSONLTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, "vp", wireSamples()); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")

	whole := strings.Join(lines[:3], "")
	out, err := ReadJSONL(strings.NewReader(whole))
	if err != nil {
		t.Fatalf("clean prefix rejected: %v", err)
	}
	if len(out["vp"]) != 3 {
		t.Fatalf("clean prefix: %d results, want 3", len(out["vp"]))
	}

	cut := whole + lines[3][:len(lines[3])/2]
	if _, err := ReadJSONL(strings.NewReader(cut)); err == nil {
		t.Fatal("mid-line truncation parsed without error")
	}
}

// TestWireErrReconstruction pins the DeepEqual compatibility of decoded
// errors with the prober's own errors.New values.
func TestWireErrReconstruction(t *testing.T) {
	r := ToWire(probe.Result{Type: probe.SendError, Err: probe.ErrTooManyOutstanding}).Result()
	if !reflect.DeepEqual(r.Err, errors.New(probe.ErrTooManyOutstanding.Error())) {
		t.Errorf("decoded err %v not DeepEqual to errors.New of the message", r.Err)
	}
}
