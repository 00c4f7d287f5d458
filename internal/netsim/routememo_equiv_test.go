package netsim_test

import (
	"encoding/binary"
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"recordroute/internal/netsim"
	"recordroute/internal/study"
	"recordroute/internal/topology"
)

func key4(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

func addrOf(k uint32) netip.Addr {
	return netip.AddrFrom4([4]byte(binary.BigEndian.AppendUint32(nil, k)))
}

// TestRouteMemoMatchesUncached resolves every (router, destination) pair
// of generated worlds through the route memo, warmed in a random order,
// and holds each answer to the uncached resolution at the same virtual
// time. The fault plans withdraw prefixes on a short period and churn
// them by epoch, so the lookups straddle withdrawal flips and the
// routers with per-prefix faults, whose memos stay keyed by address.
func TestRouteMemoMatchesUncached(t *testing.T) {
	small, err := topology.ProfileConfig(topology.Epoch2016, topology.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	faults := &netsim.FaultConfig{WithdrawFrac: 0.5, WithdrawPeriod: 10 * time.Second, WithdrawFor: 4 * time.Second,
		ChurnFrac: 0.5, ChurnProb: 0.5}
	worlds := []struct {
		name string
		cfg  topology.Config
	}{
		{"scale0.15", topology.DefaultConfig(topology.Epoch2016).Scale(0.15)},
		{"small", small},
	}
	for _, w := range worlds {
		for _, faulty := range []bool{false, true} {
			cfg, name := w.cfg, w.name
			if faulty {
				cfg.Faults, name = faults, name+"+faults"
			}
			t.Run(name, func(t *testing.T) {
				topo := topology.MustBuild(cfg)
				n := topo.Net
				n.SetFaultEpoch(1)
				var dsts []uint32
				for _, d := range topo.Dests {
					dsts = append(dsts, key4(d.Addr))
				}
				for _, vps := range [][]*topology.VP{topo.VPs, topo.CloudVPs} {
					for _, vp := range vps {
						dsts = append(dsts, key4(vp.Addr))
					}
				}
				routers := len(n.Routers())
				pairs := make([]uint64, 0, routers*len(dsts))
				for r := range routers {
					for _, d := range dsts {
						pairs = append(pairs, uint64(r)<<32|uint64(d))
					}
				}
				rng := rand.New(rand.NewPCG(1, 2))
				// Two passes, each in its own random order and spread over
				// a minute of virtual time: the first warms the memos, the
				// second mostly hits them.
				for pass := range 2 {
					rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
					const steps = 30
					for s := range steps {
						chunk := pairs[s*len(pairs)/steps : (s+1)*len(pairs)/steps]
						n.Engine().Schedule(time.Duration(s)*2*time.Second+time.Duration(pass)*time.Second, func() {
							for _, p := range chunk {
								r, d := int(p>>32), uint32(p)
								if got, want := netsim.RouteVia(n, r, d), netsim.RouteViaUncached(n, r, d); got != want {
									t.Fatalf("router %d → %v at %v: memo %d, uncached %d", r, addrOf(d), n.Now(), got, want)
								}
							}
						})
					}
					n.Engine().Run()
				}
			})
		}
	}
}

// TestRouteMemoSizeAfterTable1 counts each router's memo entries after a
// Table 1 campaign: one per remote AS it forwarded toward, plus the
// addresses of its own AS it forwarded to. Keyed by destination, the
// memos held one entry per destination forwarded to, and the largest
// overflowed routeCacheMax at the large profile.
func TestRouteMemoSizeAfterTable1(t *testing.T) {
	s, err := study.New(topology.DefaultConfig(topology.Epoch2016).Scale(0.15), study.Options{Rate: 200, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Table1()
	topo := s.Topo
	ases := len(topo.ASes)
	total, most := 0, 0
	for ri, r := range topo.Net.Routers() {
		blocks, addrs := netsim.MemoEntries(topo.Net, ri)
		own := 0
		as := topo.ASOf(r.Interfaces()[0].Addr)
		for _, a := range addrs {
			if topo.ASOf(addrOf(a)) == as {
				own++
			}
		}
		if entries := blocks + len(addrs); entries > ases+own {
			t.Errorf("router %s holds %d entries (%d blocks, %d addresses, %d of them in its AS), more than %d ASes plus %d",
				r.Name(), entries, blocks, len(addrs), own, ases, own)
		}
		total += blocks + len(addrs)
		most = max(most, blocks+len(addrs))
	}
	t.Logf("%d ASes, %d routers: %d memo entries, %.1f a router, at most %d",
		ases, len(topo.Net.Routers()), total, float64(total)/float64(len(topo.Net.Routers())), most)
}
