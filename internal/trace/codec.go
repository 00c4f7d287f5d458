package trace

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// The global stop set crosses one serialization boundary: journaled
// campaigns checkpoint the merged set after each round so a resumed
// run can verify it reconverged byte-for-byte. The format is
// deliberately rigid — sorted entries, exact length, no varints — so
// that equal sets always serialize to equal bytes.
//
//	magic "rrSS" | version 1 | count uint32 | count × entry
//	entry: prefixAddr [4]byte | prefixBits byte | iface [4]byte | rem byte
const (
	codecMagic   = "rrSS"
	codecVersion = 1
	codecHeader  = 4 + 1 + 4
	codecEntry   = 4 + 1 + 4 + 1
)

// MarshalBinary serializes the set canonically: header then entries
// in Keys() order. Only IPv4 addresses are representable — the
// simulated Internet is IPv4 — so any other address is an error.
func (g *GlobalSet) MarshalBinary() ([]byte, error) {
	keys := g.Keys()
	out := make([]byte, 0, codecHeader+len(keys)*codecEntry)
	out = append(out, codecMagic...)
	out = append(out, codecVersion)
	out = binary.BigEndian.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		if !k.Prefix.Addr().Is4() || !k.Iface.Is4() {
			return nil, fmt.Errorf("trace: non-IPv4 stop-set key %v/%v", k.Iface, k.Prefix)
		}
		pa := k.Prefix.Addr().As4()
		ia := k.Iface.As4()
		out = append(out, pa[:]...)
		out = append(out, byte(k.Prefix.Bits()))
		out = append(out, ia[:]...)
		out = append(out, g.m[k])
	}
	return out, nil
}

// UnmarshalGlobalSet parses codec bytes back into a set. It is
// strict: bad magic or version, truncated or trailing bytes, invalid
// prefix lengths, duplicate or out-of-order entries are all errors —
// accepting only canonical input keeps decode∘encode the identity,
// the property the fuzz target pins.
func UnmarshalGlobalSet(data []byte) (*GlobalSet, error) {
	if len(data) < codecHeader {
		return nil, fmt.Errorf("trace: stop-set codec: %d bytes, want at least %d", len(data), codecHeader)
	}
	if string(data[:4]) != codecMagic {
		return nil, fmt.Errorf("trace: stop-set codec: bad magic %q", data[:4])
	}
	if data[4] != codecVersion {
		return nil, fmt.Errorf("trace: stop-set codec: version %d, want %d", data[4], codecVersion)
	}
	count := binary.BigEndian.Uint32(data[5:9])
	if got, want := len(data)-codecHeader, int(count)*codecEntry; got != want {
		return nil, fmt.Errorf("trace: stop-set codec: %d entry bytes for %d entries (want %d)", got, count, want)
	}
	g := NewGlobalSet()
	var prev Key
	for i := 0; i < int(count); i++ {
		e := data[codecHeader+i*codecEntry:]
		bits := int(e[4])
		if bits > 32 {
			return nil, fmt.Errorf("trace: stop-set codec: entry %d: prefix length %d", i, bits)
		}
		k := Key{
			Iface:  netip.AddrFrom4([4]byte(e[5:9])),
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte(e[0:4])), bits),
		}
		if k.Prefix.Masked() != k.Prefix {
			return nil, fmt.Errorf("trace: stop-set codec: entry %d: unmasked prefix %v", i, k.Prefix)
		}
		if i > 0 && !keyLess(prev, k) {
			return nil, fmt.Errorf("trace: stop-set codec: entry %d out of canonical order", i)
		}
		g.m[k] = e[9]
		prev = k
	}
	return g, nil
}
