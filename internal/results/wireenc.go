package results

import (
	"encoding/json"
	"net/netip"
	"strconv"

	"recordroute/internal/probe"
)

// The append-style encoder below is the one writer of results: the
// campaign journal and the daemon's /stream both carry its bytes. Its
// contract is the format encoding/json renders for Wire and
// StreamRecord — key order, omitempty decisions, string escaping —
// byte for byte, so Wire and StreamRecord stay the decode types and
// files written by either encoder are interchangeable (DESIGN.md §11;
// FuzzWireEncodeEquivalence holds the two together).

// AppendWireFields appends the members of r's Wire object — everything
// between the braces — to dst. "dst" is always present, so the result
// is never empty and a caller may put members of its own in front.
func AppendWireFields(dst []byte, r *probe.Result) []byte {
	dst = appendAddr(append(dst, `"dst":`...), r.Dst)
	dst = appendInt(dst, `,"kind":`, int64(r.Kind))
	if r.TTL != 0 {
		dst = appendInt(dst, `,"ttl":`, int64(r.TTL))
	}
	if r.RRSlots != 0 {
		dst = appendInt(dst, `,"rr_slots":`, int64(r.RRSlots))
	}
	if r.UDPDstPort != 0 {
		dst = appendInt(dst, `,"udp_port":`, int64(r.UDPDstPort))
	}
	if len(r.Via) > 0 {
		dst = appendAddrs(dst, `,"via":`, r.Via)
	}
	if r.Seq != 0 {
		dst = appendInt(dst, `,"seq":`, int64(r.Seq))
	}
	dst = appendInt(dst, `,"sent_ns":`, int64(r.SentAt))
	if r.RcvdAt != 0 {
		dst = appendInt(dst, `,"rcvd_ns":`, int64(r.RcvdAt))
	}
	dst = appendInt(dst, `,"type":`, int64(r.Type))
	dst = appendAddr(append(dst, `,"from":`...), r.From)
	if r.ReplyIPID != 0 {
		dst = appendInt(dst, `,"ipid":`, int64(r.ReplyIPID))
	}
	if r.HasRR {
		dst = append(dst, `,"has_rr":true`...)
	}
	if len(r.RR) > 0 {
		dst = appendAddrs(dst, `,"rr":`, r.RR)
	}
	if r.RRTotalSlots != 0 {
		dst = appendInt(dst, `,"rr_total":`, int64(r.RRTotalSlots))
	}
	if r.RRFull {
		dst = append(dst, `,"rr_full":true`...)
	}
	if r.QuotedRR {
		dst = append(dst, `,"quoted_rr":true`...)
	}
	if r.Attempts != 0 {
		dst = appendInt(dst, `,"attempts":`, int64(r.Attempts))
	}
	if r.MatchedAttempt != 0 {
		dst = appendInt(dst, `,"matched":`, int64(r.MatchedAttempt))
	}
	if r.Err != nil {
		if msg := r.Err.Error(); msg != "" {
			dst = AppendString(append(dst, `,"err":`...), msg)
		}
	}
	return dst
}

// AppendStreamOpen appends what opens every StreamRecord line of vp:
// `{"vp":"<vp>",`. AppendWireFields and "}\n" complete the line.
func AppendStreamOpen(dst []byte, vp string) []byte {
	return append(AppendString(append(dst, `{"vp":`...), vp), ',')
}

// AppendJSONL appends one StreamRecord line per result, in slice order.
func AppendJSONL(dst []byte, vp string, rs []probe.Result) []byte {
	var scratch [64]byte
	open := AppendStreamOpen(scratch[:0], vp)
	for i := range rs {
		dst = appendStreamLine(dst, open, &rs[i])
	}
	return dst
}

func appendStreamLine(dst, open []byte, r *probe.Result) []byte {
	dst = append(dst, open...)
	dst = AppendWireFields(dst, r)
	return append(dst, "}\n"...)
}

// AppendString appends s as the JSON string encoding/json renders for
// it. Printable ASCII outside `"\<>&` is what result streams hold and
// is copied through; anything else (escapes, HTML-sensitive bytes,
// non-ASCII, invalid UTF-8) is left to encoding/json itself, so the
// rules live in one place.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendAddr appends a's text form as a JSON string; the zero Addr is
// "". Only a zone — free-form caller text — can need escaping.
func appendAddr(dst []byte, a netip.Addr) []byte {
	if a.Is6() && a.Zone() != "" {
		return AppendString(dst, a.String())
	}
	dst = append(dst, '"')
	dst = a.AppendTo(dst)
	return append(dst, '"')
}

func appendAddrs(dst []byte, key string, as []netip.Addr) []byte {
	dst = append(dst, key...)
	for i, a := range as {
		dst = appendAddr(append(dst, sep(i)), a)
	}
	return append(dst, ']')
}

// sep is the byte in front of element i of a JSON array.
func sep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}
