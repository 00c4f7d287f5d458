package results

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"recordroute/internal/probe"
)

var updateCorpus = flag.Bool("updatecorpus", false, "rewrite the committed seed corpus under testdata/fuzz")

// referenceJSONL is the format contract: what encoding/json renders for
// StreamRecord, one line per result. The append encoder must produce
// these bytes exactly.
func referenceJSONL(t testing.TB, vp string, rs []probe.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range rs {
		if err := enc.Encode(StreamRecord{VP: vp, Wire: ToWire(r)}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// edgeSamples are the results wireSamples has no reason to hold: every
// omitempty field at its zero, IPv6 / zoned / 4-in-6 / zero addresses
// inside lists, and error text that needs each kind of escaping.
func edgeSamples() []probe.Result {
	a := netip.MustParseAddr
	return []probe.Result{
		{},
		{Spec: probe.Spec{Via: []netip.Addr{}}, RR: []netip.Addr{}, Err: errors.New("")},
		{
			Spec: probe.Spec{Dst: a("2001:db8::1"), Kind: -3, TTL: 255, RRSlots: -1, UDPDstPort: 65535,
				Via: []netip.Addr{a("fe80::1%eth0"), {}, a("::ffff:10.1.2.3"), a(`fe80::2%<"z&>\`)}},
			Seq: 1, SentAt: -5, RcvdAt: 1<<63 - 1, Type: -1, From: a("fe80::1%eth0"), ReplyIPID: 65535,
			HasRR: true, RR: []netip.Addr{{}, a("::"), a("fe80::3%\u2028")}, RRTotalSlots: 1 << 40, RRFull: true, QuotedRR: true,
			Attempts: -7, MatchedAttempt: 9,
			Err: errors.New("<b>&\"quoted\"\\ \x00\x1f\x7f tab\t nl\n caf\u00e9 \u2028\u2029 \xff\xfe bad utf8"),
		},
	}
}

func TestWireEncodeMatchesEncodingJSON(t *testing.T) {
	all := append(wireSamples(), edgeSamples()...)
	for _, vp := range []string{"mlab-01", "", `vp "<&>" \ caf` + "\u00e9\xff"} {
		want := referenceJSONL(t, vp, all)
		if got := AppendJSONL(nil, vp, all); !bytes.Equal(got, want) {
			t.Errorf("vp %q:\n got %s\nwant %s", vp, got, want)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, vp, all); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("vp %q: WriteJSONL differs from the reference encoding", vp)
		}
	}
	// The bare object, as journal vp records embed it.
	for i, r := range all {
		want, err := json.Marshal(ToWire(r))
		if err != nil {
			t.Fatal(err)
		}
		got := append(AppendWireFields([]byte{'{'}, &r), '}')
		if !bytes.Equal(got, want) {
			t.Errorf("result %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestWireEncoderCoversEveryField: a field added to Wire must reach the
// append encoder too — every JSON key Wire declares appears in the
// encoding of a result with nothing left at zero.
func TestWireEncoderCoversEveryField(t *testing.T) {
	full := edgeSamples()[2]
	var got map[string]any
	if err := json.Unmarshal(append(AppendWireFields([]byte{'{'}, &full), '}'), &got); err != nil {
		t.Fatal(err)
	}
	wt := reflect.TypeOf(Wire{})
	for i := 0; i < wt.NumField(); i++ {
		key, _, _ := strings.Cut(wt.Field(i).Tag.Get("json"), ",")
		if _, ok := got[key]; !ok {
			t.Errorf("Wire.%s (%q) is not written by AppendWireFields", wt.Field(i).Name, key)
		}
	}
	if len(got) != wt.NumField() {
		t.Errorf("AppendWireFields wrote %d keys, Wire declares %d", len(got), wt.NumField())
	}
}

// fuzzSrc deals bytes of fuzz input out as field values; an exhausted
// source deals zeros, so short inputs exercise the omitempty side.
type fuzzSrc struct{ b []byte }

func (s *fuzzSrc) take(n int) []byte {
	out := make([]byte, n)
	s.b = s.b[copy(out, s.b):]
	return out
}

func (s *fuzzSrc) byte() byte      { return s.take(1)[0] }
func (s *fuzzSrc) bool() bool      { return s.byte()&1 == 1 }
func (s *fuzzSrc) u16() uint16     { return binary.BigEndian.Uint16(s.take(2)) }
func (s *fuzzSrc) i64() int64      { return int64(binary.BigEndian.Uint64(s.take(8))) }
func (s *fuzzSrc) count(n int) int { return int(s.byte()) % n }

func (s *fuzzSrc) addr(zone string) netip.Addr {
	switch s.count(5) {
	case 1:
		return netip.AddrFrom4([4]byte(s.take(4)))
	case 2:
		return netip.AddrFrom16([16]byte(s.take(16)))
	case 3:
		return netip.AddrFrom16([16]byte(s.take(16))).WithZone(zone)
	case 4:
		return netip.AddrFrom16([16]byte(append(append(make([]byte, 10), 0xff, 0xff), s.take(4)...)))
	}
	return netip.Addr{}
}

func (s *fuzzSrc) addrs(zone string) []netip.Addr {
	var out []netip.Addr
	for n := s.count(4); n > 0; n-- {
		out = append(out, s.addr(zone))
	}
	return out
}

func (s *fuzzSrc) result(zone, errMsg string) probe.Result {
	r := probe.Result{
		Spec: probe.Spec{Dst: s.addr(zone), Kind: probe.Kind(s.i64()), TTL: s.byte(),
			RRSlots: int(s.i64()), UDPDstPort: s.u16(), Via: s.addrs(zone)},
		Seq: s.u16(), SentAt: time.Duration(s.i64()), RcvdAt: time.Duration(s.i64()),
		Type: probe.ResponseType(s.i64()), From: s.addr(zone), ReplyIPID: s.u16(),
		HasRR: s.bool(), RR: s.addrs(zone), RRTotalSlots: int(s.i64()), RRFull: s.bool(), QuotedRR: s.bool(),
		Attempts: int(s.i64()), MatchedAttempt: int(s.i64()),
	}
	if s.bool() {
		r.Err = errors.New(errMsg)
	}
	return r
}

type fuzzSeed struct {
	data             []byte
	vp, zone, errMsg string
}

// fuzzSeeds is the committed corpus: inputs that light every field, each
// address family, and text that takes the escaping path.
func fuzzSeeds() []fuzzSeed {
	full := bytes.Repeat([]byte{0xff, 0x03, 0x41, 0x02, 0x80, 0x01, 0x04}, 40)
	return []fuzzSeed{
		{[]byte{}, "", "", ""},
		{full, "mlab-01", "eth0", "probe: too many outstanding probes"},
		{full[1:], "", `z"<&>\`, "<b>&\"q\"\\ \x00\x1f\x7f\t\n caf\u00e9 \u2028 \xff\xfe"},
		{full[2:], "vp \xff\u2029", "\u00e9%x", "\x7f"},
		{full[3:90], "plab-02", "", "&"},
	}
}

// FuzzWireEncodeEquivalence holds the append encoder to the format
// contract: for any result, VP name, zone and error text it writes
// exactly what encoding/json renders for StreamRecord, and the line
// reads back — to the same result whenever the text survives JSON
// (invalid UTF-8 is replaced by the encoder, as encoding/json does).
func FuzzWireEncodeEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s.data, s.vp, s.zone, s.errMsg)
	}
	f.Fuzz(func(t *testing.T, data []byte, vp, zone, errMsg string) {
		src := &fuzzSrc{b: data}
		rs := []probe.Result{src.result(zone, errMsg), src.result(zone, errMsg)}
		want := referenceJSONL(t, vp, rs)
		got := AppendJSONL(nil, vp, rs)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoders differ:\n got %s\nwant %s", got, want)
		}
		back, err := ReadJSONL(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("encoded lines do not read back: %v\n%s", err, got)
		}
		if !utf8.ValidString(vp) || !utf8.ValidString(zone) || !utf8.ValidString(errMsg) {
			return
		}
		if len(back[vp]) != len(rs) {
			t.Fatalf("%d results read back of %d", len(back[vp]), len(rs))
		}
		for i, r := range rs {
			// What a decode cannot tell apart: empty and nil lists, and
			// an error with no text from no error.
			if len(r.Via) == 0 {
				r.Via = nil
			}
			if len(r.RR) == 0 {
				r.RR = nil
			}
			if r.Err != nil && r.Err.Error() == "" {
				r.Err = nil
			}
			if !reflect.DeepEqual(back[vp][i], r) {
				t.Fatalf("result %d changed in the round trip:\n in: %+v\nout: %+v", i, r, back[vp][i])
			}
		}
	})
}

// TestUpdateWireFuzzCorpus rewrites the committed seed corpus (run with
// -updatecorpus after changing fuzzSeeds).
func TestUpdateWireFuzzCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -updatecorpus to rewrite testdata/fuzz seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWireEncodeEquivalence")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nstring(%q)\nstring(%q)\nstring(%q)\n", s.data, s.vp, s.zone, s.errMsg)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

var wireSink []byte

// wireBatch is one VP batch of the seven wireSamples shapes, 700 results.
func wireBatch() []probe.Result {
	var batch []probe.Result
	for i := 0; i < 100; i++ {
		batch = append(batch, wireSamples()...)
	}
	return batch
}

// TestAppendJSONLAllocs pins the append encoder's contract: a batch
// encoded into a buffer already big enough for it allocates nothing —
// the steady state of the journal's pooled line buffer.
func TestAppendJSONLAllocs(t *testing.T) {
	batch := wireBatch()
	buf := AppendJSONL(nil, "mlab-01", batch) // size the buffer
	encode := func() { buf = AppendJSONL(buf[:0], "mlab-01", batch) }
	if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
		t.Errorf("AppendJSONL into a sized buffer allocates %v times per %d-result batch, want 0", allocs, len(batch))
	}
}

// BenchmarkWireEncode times one VP batch through the append encoder
// into a reused buffer (TestAppendJSONLAllocs pins that it allocates
// nothing).
func BenchmarkWireEncode(b *testing.B) {
	batch := wireBatch()
	buf := AppendJSONL(nil, "mlab-01", batch) // size the buffer before timing
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendJSONL(buf[:0], "mlab-01", batch)
	}
	wireSink = buf
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/result")
}
