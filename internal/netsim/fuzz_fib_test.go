package netsim

import (
	"net/netip"
	"testing"
)

// oracleRoute is one installed route as the reference model sees it.
type oracleRoute struct {
	prefix netip.Prefix
	via    IfaceID
}

// oracleAdd mirrors FIB.Add: mask to canonical form, last Add for the
// same masked prefix wins.
func oracleAdd(routes []oracleRoute, p netip.Prefix, via IfaceID) []oracleRoute {
	p = p.Masked()
	for i := range routes {
		if routes[i].prefix == p {
			routes[i].via = via
			return routes
		}
	}
	return append(routes, oracleRoute{p, via})
}

// oracleLookup is the naive longest-prefix match: scan every route,
// keep the longest one containing dst. Two distinct prefixes of equal
// length cannot both contain dst, so the winner is unique.
func oracleLookup(routes []oracleRoute, dst netip.Addr) IfaceID {
	best := NoIface
	bestBits := -1
	for _, r := range routes {
		if r.prefix.Contains(dst) && r.prefix.Bits() > bestBits {
			best, bestBits = r.via, r.prefix.Bits()
		}
	}
	return best
}

// FuzzFIBLookup drives the sorted FIB (a binary search per distinct
// prefix length) against the naive oracle. The input encodes a route
// table and a set of lookups: 6-byte records install routes (4 address
// bytes, prefix length, interface index) until a record's first byte is
// 0xFF; every remaining 4-byte group is a lookup address.
func FuzzFIBLookup(f *testing.F) {
	// A representative table: default route, two /8-style aggregates, a
	// /24, and host routes — then lookups that hit each layer.
	f.Add([]byte{
		10, 0, 0, 0, 8, 0,
		10, 1, 0, 0, 16, 1,
		10, 1, 2, 0, 24, 2,
		10, 1, 2, 3, 32, 3,
		0, 0, 0, 0, 0, 4,
		0xFF, 0, 0, 0, 0, 0,
		10, 1, 2, 3,
		10, 1, 2, 9,
		10, 1, 9, 9,
		10, 9, 9, 9,
		192, 0, 2, 1,
	})
	// Overwrite: same masked prefix installed twice, last wins.
	f.Add([]byte{
		10, 0, 0, 0, 8, 0,
		10, 99, 99, 99, 8, 1, // masks to 10.0.0.0/8 again
		0xFF, 0, 0, 0, 0, 0,
		10, 5, 5, 5,
	})
	f.Add([]byte{0xFF, 0, 0, 0, 0, 0, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		fib := NewFIB()
		var routes []oracleRoute

		i := 0
		for ; i+6 <= len(data) && data[i] != 0xFF && len(routes) < 64; i += 6 {
			addr := netip.AddrFrom4([4]byte{data[i], data[i+1], data[i+2], data[i+3]})
			bits := int(data[i+4]) % 33
			via := IfaceID(data[i+5] % 8)
			p, err := addr.Prefix(bits)
			if err != nil {
				t.Fatalf("Prefix(%d) on v4 addr: %v", bits, err)
			}
			fib.Add(p, via)
			routes = oracleAdd(routes, p, via)
		}
		if i < len(data) && data[i] == 0xFF {
			i += 6
		}
		if fib.Len() != len(routes) {
			t.Fatalf("FIB.Len() = %d, oracle has %d routes", fib.Len(), len(routes))
		}
		for ; i+4 <= len(data); i += 4 {
			dst := netip.AddrFrom4([4]byte{data[i], data[i+1], data[i+2], data[i+3]})
			got, want := fib.Lookup(dst), oracleLookup(routes, dst)
			if got != want {
				t.Fatalf("Lookup(%v): FIB %d, oracle %d (routes: %v)", dst, got, want, routes)
			}
		}
		// Installed routes must resolve to themselves by address.
		for _, r := range routes {
			if got := fib.Lookup(r.prefix.Addr()); got != oracleLookup(routes, r.prefix.Addr()) {
				t.Fatalf("Lookup(%v) of installed prefix %v diverges", r.prefix.Addr(), r.prefix)
			}
		}
	})
}
