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

// TestRouteMemoOverflowKeepsTable drives one router through more distinct
// destinations than routeCacheMax, twice — what every gateway and core
// router of a large sweep sees in every phase. Overflow must empty the
// memo in place: the second pass asks the oracle exactly as often as a
// bounded cache of that policy has to, and allocates no table.
func TestRouteMemoOverflowKeepsTable(t *testing.T) {
	n := New()
	r := n.AddRouter("r", RouterBehavior{})
	peer := n.AddRouter("peer", RouterBehavior{})
	via, _ := n.Connect(r, peer, a("10.0.0.1"), a("10.0.0.2"), 0)
	calls := 0
	n.SetRouteFunc(func(int, uint32) IfaceID { calls++; return via.id })

	const dsts = routeCacheMax + 1000
	// model is the memo's policy on a map: empty everything at the bound.
	model, misses := map[uint32]bool{}, 0
	pass := func() {
		for i := uint32(0); i < dsts; i++ {
			dst := 100<<24 | i<<8 | 50
			if got := n.lookupRoute4(r.idx, dst); got != via.id {
				t.Fatalf("lookup %d = %d, want %d", i, got, via.id)
			}
			if !model[dst] {
				if len(model) >= routeCacheMax {
					clear(model)
				}
				model[dst] = true
				misses++
			}
		}
	}
	pass()
	if calls != misses || calls != dsts {
		t.Fatalf("first pass: %d oracle calls, model %d, want %d", calls, misses, dsts)
	}
	slots := len(n.rs[r.idx].memo.slots)

	calls, misses = 0, 0
	if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
		t.Errorf("second pass allocated %v times, want 0 (table dropped on overflow?)", allocs)
	}
	// AllocsPerRun runs its function once to warm up and once measured.
	if calls != misses || calls == 0 {
		t.Errorf("second and third pass: %d oracle calls, model %d", calls, misses)
	}
	if got := len(n.rs[r.idx].memo.slots); got != slots {
		t.Errorf("table went from %d to %d slots", slots, got)
	}
}
