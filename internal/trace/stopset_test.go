package trace

import (
	"bytes"
	"math/rand/v2"
	"net/netip"
	"testing"
)

func mustAddr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestLocalSet(t *testing.T) {
	s := NewLocalSet()
	a, b := mustAddr("10.0.0.2"), mustAddr("10.0.0.1")
	if s.Has(a) {
		t.Error("empty set Has = true")
	}
	if !s.Add(a) {
		t.Error("first Add = false")
	}
	if s.Add(a) {
		t.Error("duplicate Add = true")
	}
	s.Add(b)
	if !s.Has(a) || !s.Has(b) || s.Len() != 2 {
		t.Errorf("Has/Len broken: %v", s.Addrs())
	}
	got := s.Addrs()
	if len(got) != 2 || got[0] != b || got[1] != a {
		t.Errorf("Addrs = %v, want sorted [%v %v]", got, b, a)
	}
}

func TestGlobalSetMinMerge(t *testing.T) {
	g := NewGlobalSet()
	k := Key{Iface: mustAddr("10.0.0.1"), Prefix: mustPrefix("192.0.2.0/24")}
	g.Add(k, 5)
	g.Add(k, 7) // larger must not overwrite
	if rem, ok := g.Lookup(k.Iface, k.Prefix); !ok || rem != 5 {
		t.Errorf("after min-merge rem = %d, %v; want 5, true", rem, ok)
	}
	g.Add(k, 3)
	if rem, _ := g.Lookup(k.Iface, k.Prefix); rem != 3 {
		t.Errorf("smaller rem not kept: %d", rem)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
}

// randomSet builds a deterministic pseudo-random global set.
func randomSet(rng *rand.Rand, n int) *GlobalSet {
	g := NewGlobalSet()
	for i := 0; i < n; i++ {
		iface := netip.AddrFrom4([4]byte{10, byte(rng.IntN(4)), byte(rng.IntN(256)), byte(rng.IntN(256))})
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{192, byte(rng.IntN(8)), byte(rng.IntN(256)), 0}), 24)
		g.Add(Key{Iface: iface, Prefix: pfx}, uint8(rng.IntN(30)))
	}
	return g
}

// TestUnionOrderIndependent pins the determinism contract's algebra:
// min-merge union commutes, so any merge order converges on the same
// set — the property that makes the shard merge shard-count-invariant.
func TestUnionOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	deltas := make([]*GlobalSet, 5)
	for i := range deltas {
		deltas[i] = randomSet(rng, 40)
	}
	fwd, rev := NewGlobalSet(), NewGlobalSet()
	for _, d := range deltas {
		fwd.Union(d)
	}
	for i := len(deltas) - 1; i >= 0; i-- {
		rev.Union(deltas[i])
	}
	if !fwd.Equal(rev) {
		t.Fatal("union order changed the merged set")
	}
	a, _ := fwd.MarshalBinary()
	b, _ := rev.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("equal sets serialized to different bytes")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{0, 1, 17, 300} {
		g := randomSet(rng, n)
		data, err := g.MarshalBinary()
		if err != nil {
			t.Fatalf("n=%d: marshal: %v", n, err)
		}
		back, err := UnmarshalGlobalSet(data)
		if err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		if !g.Equal(back) {
			t.Fatalf("n=%d: round trip changed the set", n)
		}
		again, err := back.MarshalBinary()
		if err != nil || !bytes.Equal(data, again) {
			t.Fatalf("n=%d: re-encode not byte-identical (%v)", n, err)
		}
	}
}

func TestCodecMarshalRejectsNonIPv4(t *testing.T) {
	g := NewGlobalSet()
	g.Add(Key{Iface: mustAddr("2001:db8::1"), Prefix: mustPrefix("192.0.2.0/24")}, 1)
	if _, err := g.MarshalBinary(); err == nil {
		t.Fatal("IPv6 iface marshaled without error")
	}
}

func TestCodecStrictDecode(t *testing.T) {
	g := NewGlobalSet()
	g.Add(Key{Iface: mustAddr("10.0.0.1"), Prefix: mustPrefix("192.0.2.0/24")}, 4)
	g.Add(Key{Iface: mustAddr("10.0.0.2"), Prefix: mustPrefix("198.51.100.0/24")}, 2)
	good, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":      {},
		"short":      good[:codecHeader-1],
		"bad magic":  mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad ver":    mutate(func(b []byte) []byte { b[4] = 9; return b }),
		"truncated":  good[:len(good)-1],
		"trailing":   append(append([]byte(nil), good...), 0),
		"bits>32":    mutate(func(b []byte) []byte { b[codecHeader+4] = 33; return b }),
		"unmasked":   mutate(func(b []byte) []byte { b[codecHeader+3] = 7; return b }),
		"disordered": mutate(func(b []byte) []byte { b[codecHeader] = 250; return b }),
	}
	// Duplicate entries violate strict ordering too.
	dup := append([]byte(nil), good...)
	copy(dup[codecHeader+codecEntry:], good[codecHeader:codecHeader+codecEntry])
	cases["duplicate"] = dup

	for name, data := range cases {
		if _, err := UnmarshalGlobalSet(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestSessionPrefixOf(t *testing.T) {
	d := mustAddr("203.0.113.9")
	def := NewSession(nil)
	if got, want := def.PrefixOf(d), mustPrefix("203.0.113.0/24"); got != want {
		t.Errorf("nil prefixOf: %v, want %v", got, want)
	}
	custom := NewSession(func(netip.Addr) netip.Prefix { return mustPrefix("203.0.112.0/23") })
	if got, want := custom.PrefixOf(d), mustPrefix("203.0.112.0/23"); got != want {
		t.Errorf("custom prefixOf: %v, want %v", got, want)
	}
}

func TestSessionMergeThroughCodec(t *testing.T) {
	s := NewSession(nil)
	k := Key{Iface: mustAddr("10.0.0.1"), Prefix: mustPrefix("192.0.2.0/24")}
	d1, d2 := NewGlobalSet(), NewGlobalSet()
	d1.Add(k, 6)
	d2.Add(k, 4)
	s.Merge(d1, nil, d2, NewGlobalSet())
	if rem, ok := s.Global.Lookup(k.Iface, k.Prefix); !ok || rem != 4 {
		t.Errorf("merged rem = %d, %v; want 4, true", rem, ok)
	}
}

func TestMidTTL(t *testing.T) {
	st := NewVPState()
	opts := Options{FirstHop: 8}
	if got := st.midTTL(opts); got != 8 {
		t.Errorf("cold midTTL = %d, want FirstHop 8", got)
	}
	for _, ttl := range []uint8{4, 4, 10, 12, 12} {
		st.observeDestTTL(ttl)
	}
	if got := st.midTTL(opts); got != 10 {
		t.Errorf("median midTTL = %d, want 10", got)
	}
	// Distances beyond the histogram share the last bucket.
	big := NewVPState()
	for i := 0; i < 6; i++ {
		big.observeDestTTL(200)
	}
	if got := big.midTTL(opts); got != ttlHistSize-1 {
		t.Errorf("clamped midTTL = %d, want %d", got, ttlHistSize-1)
	}
}
