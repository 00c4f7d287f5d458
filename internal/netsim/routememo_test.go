package netsim

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"
)

// TestRouteMemoMatchesMap drives the open-addressed memo and a Go map
// with the same operations — dense sequential keys (what campaigns
// produce), colliding keys, block keys equal to address keys, growth
// across several doublings, resets.
func TestRouteMemoMatchesMap(t *testing.T) {
	type entry struct {
		key uint32
		sp  int32
	}
	var m routeMemo
	oracle := map[entry]int32{}
	rng := uint64(lossSeed)
	next := func() uint32 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return uint32(rng * 0x2545f4914f6cdd1d >> 32)
	}
	check := func(e entry) {
		t.Helper()
		if got, want := m.get(e.key, e.sp), oracle[e]; got != want {
			t.Fatalf("get(%#x, %d) = %d, want %d (n=%d)", e.key, e.sp, got, want, m.n)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 5000; i++ {
			e := entry{sp: byAddr}
			switch i % 4 {
			case 0:
				e.key = 100<<24 | uint32(i)<<8 | 50 // dense, low bits constant
			case 1:
				e.key = next()
			case 2:
				e.key = next() << 20 // low bits all zero
			default:
				e = entry{uint32(i) % 97, byBlock} // blocks, some also address keys
				if i%8 == 3 {
					e.sp = byAddr
				}
			}
			check(e)
			if _, seen := oracle[e]; !seen {
				v := int32(next()%1000) + 1
				m.put(e.key, e.sp, v)
				oracle[e] = v
			}
			check(e)
			check(entry{e.key, -e.sp})
		}
		if m.n != len(oracle) {
			t.Fatalf("n = %d, want %d", m.n, len(oracle))
		}
		if 2*m.n > len(m.slots) {
			t.Fatalf("table over half full: %d in %d", m.n, len(m.slots))
		}
		for e := range oracle {
			check(e)
		}
		m.reset()
		clear(oracle)
		check(entry{7, byAddr})
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
	n.SetRouteFunc(func(int, uint32) (IfaceID, bool) { calls++; return via.id, false })

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

// TestRouteMemoKeySpaces holds the memo to the uncached resolution where
// its two key spaces could alias or a block entry could overreach: a
// route-less remote block whose .0.0 address is FIB-routed, an address
// equal to a block's key, wide answers for the router's own /16, and a
// withdrawn prefix inside a wide block — in many orders, inside and
// outside the withdrawal window.
func TestRouteMemoKeySpaces(t *testing.T) {
	n := New()
	r := n.AddRouter("r", RouterBehavior{})
	wide, _ := n.Connect(r, n.AddRouter("p1", RouterBehavior{}), a("10.0.0.1"), a("10.0.0.2"), 0)
	fib, _ := n.Connect(r, n.AddRouter("p2", RouterBehavior{}), a("10.0.1.1"), a("10.0.1.2"), 0)
	r.AddRoute(netip.MustParsePrefix("100.2.0.0/32"), fib)
	r.AddRoute(netip.MustParsePrefix("0.0.100.1/32"), fib)
	n.SetRouteFunc(func(_ int, dst uint32) (IfaceID, bool) {
		if blk := dst >> 16; blk == 100<<8|1 || blk == 10<<8 {
			return wide.id, true
		}
		return NoIface, false
	})
	r.setFaults(routerFaults{prefix: netip.MustParsePrefix("100.1.5.0/24"),
		withdraw: faultWindow{period: 10 * time.Second, duty: 5 * time.Second}})
	dsts := []string{"100.2.0.0", "100.2.5.5", "0.0.100.1", "0.0.100.2", "100.1.0.0", "100.1.5.5",
		"100.1.7.7", "10.0.0.2", "10.0.9.9", "10.1.0.0"}
	rng := rand.New(rand.NewPCG(3, 4))
	for round := range 50 {
		n.rs[r.idx].memo.reset()
		rng.Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
		n.Engine().Schedule(time.Duration(round)*time.Second, func() {
			for range 2 {
				for _, s := range dsts {
					d, _ := key4(a(s))
					want, _ := n.lookupRouteSlow(r.idx, d)
					if got := n.lookupRoute4(r.idx, d); got != want {
						t.Fatalf("round %d at %v, %s: memo %d, uncached %d", round, n.Now(), s, got, want)
					}
				}
			}
		})
		n.Engine().Run()
	}
}
