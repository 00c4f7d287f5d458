package netsim

import (
	"net/netip"
	"testing"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestFIBLongestPrefixMatch(t *testing.T) {
	f := NewFIB()
	const def, agg, spec IfaceID = 0, 1, 2
	f.Add(pfx("0.0.0.0/0"), def)
	f.Add(pfx("10.0.0.0/8"), agg)
	f.Add(pfx("10.1.2.0/24"), spec)

	tests := []struct {
		dst  string
		want IfaceID
	}{
		{"10.1.2.3", spec},
		{"10.9.9.9", agg},
		{"192.0.2.1", def},
	}
	for _, tc := range tests {
		if got := f.Lookup(netip.MustParseAddr(tc.dst)); got != tc.want {
			t.Errorf("Lookup(%s) = %d, want %d", tc.dst, got, tc.want)
		}
	}
	if f.Len() != 3 {
		t.Errorf("Len = %d", f.Len())
	}
}

func TestFIBOverwriteSamePrefix(t *testing.T) {
	f := NewFIB()
	const a, b IfaceID = 0, 1
	f.Add(pfx("10.0.0.0/8"), a)
	f.Add(pfx("10.0.0.0/8"), b)
	if got := f.Lookup(netip.MustParseAddr("10.1.1.1")); got != b {
		t.Error("overwrite did not take effect")
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d after overwrite, want 1", f.Len())
	}
}

func TestFIBNoRoute(t *testing.T) {
	f := NewFIB()
	f.Add(pfx("10.0.0.0/8"), 0)
	if got := f.Lookup(netip.MustParseAddr("192.0.2.1")); got != NoIface {
		t.Errorf("Lookup with no covering route = %v", got)
	}
}

func TestFIBMasksNonCanonicalPrefix(t *testing.T) {
	f := NewFIB()
	const via IfaceID = 0
	// 10.1.2.3/8 must be treated as 10.0.0.0/8.
	f.Add(netip.PrefixFrom(netip.MustParseAddr("10.1.2.3"), 8), via)
	if got := f.Lookup(netip.MustParseAddr("10.200.0.1")); got != via {
		t.Error("non-canonical prefix not masked on Add")
	}
}

func TestFIBHostRoute(t *testing.T) {
	f := NewFIB()
	const host, agg IfaceID = 0, 1
	f.Add(pfx("10.0.0.0/8"), agg)
	f.Add(pfx("10.0.0.7/32"), host)
	if got := f.Lookup(netip.MustParseAddr("10.0.0.7")); got != host {
		t.Error("host route not preferred")
	}
	if got := f.Lookup(netip.MustParseAddr("10.0.0.8")); got != agg {
		t.Error("host route leaked to neighbours")
	}
}
