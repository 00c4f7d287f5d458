package netsim

import "testing"

// TestRouteMemoMatchesMap drives the open-addressed memo and a Go map
// with the same operations — dense sequential keys (what campaigns
// produce), colliding keys, growth across several doublings, resets.
func TestRouteMemoMatchesMap(t *testing.T) {
	var m routeMemo
	oracle := map[uint32]int32{}
	rng := uint64(lossSeed)
	next := func() uint32 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return uint32(rng * 0x2545f4914f6cdd1d >> 32)
	}
	check := func(k uint32) {
		t.Helper()
		if got, want := m.get(k), oracle[k]; got != want {
			t.Fatalf("get(%#x) = %d, want %d (n=%d)", k, got, want, m.n)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 5000; i++ {
			var k uint32
			switch i % 3 {
			case 0:
				k = 100<<24 | uint32(i)<<8 | 50 // dense, low bits constant
			case 1:
				k = next()
			default:
				k = next() << 20 // low bits all zero
			}
			check(k)
			if _, seen := oracle[k]; !seen {
				v := int32(next()%1000) + 1
				m.put(k, v)
				oracle[k] = v
			}
			check(k)
		}
		if m.n != len(oracle) {
			t.Fatalf("n = %d, want %d", m.n, len(oracle))
		}
		if 2*m.n > len(m.slots) {
			t.Fatalf("table over half full: %d in %d", m.n, len(m.slots))
		}
		for k := range oracle {
			check(k)
		}
		m.reset()
		clear(oracle)
		check(7)
	}
}
