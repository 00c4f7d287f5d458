package measure

import (
	"net/netip"
	"testing"

	"recordroute/internal/probe"
	"recordroute/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.MustBuild(topology.DefaultConfig(topology.Epoch2016).Scale(0.15))
}

// unlimitedVPs filters out source-rate-limited VPs and VPs whose
// hosting AS filters options packets (such VPs cannot measure with RR,
// just like the 56 low-response VPs the paper excluded).
func unlimitedVPs(topo *topology.Topology) []*topology.VP {
	var out []*topology.VP
	for _, v := range topo.VPs {
		if !v.SourceRateLimited && !topo.ASes[v.ASIdx].FilterOptions {
			out = append(out, v)
		}
	}
	return out
}

func responsiveDests(topo *topology.Topology, n int) []netip.Addr {
	var out []netip.Addr
	for _, d := range topo.Dests {
		if d.GTPingResponsive && !d.GTRRDrop && !topo.ASes[d.ASIdx].FilterOptions {
			out = append(out, d.Addr)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// rrCapableVPs empirically filters to VPs that can complete a ping-RR
// measurement: like the paper's study, VPs whose local path filters
// options are excluded.
func rrCapableVPs(t *testing.T, topo *topology.Topology, probeDest netip.Addr, max int) []*topology.VP {
	t.Helper()
	var out []*topology.VP
	for i, v := range unlimitedVPs(topo) {
		p := probe.New(probe.NewSimTransport(v.Host, topo.Net.Engine()), uint16(0x7100+i))
		ok := false
		p.StartOne(probe.Spec{Dst: probeDest, Kind: probe.PingRR}, 0, func(r probe.Result) {
			ok = r.Type == probe.EchoReply && r.HasRR
		})
		topo.Net.Engine().Run()
		if ok {
			out = append(out, v)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

func TestCampaignPingRRAllCollectsEveryVP(t *testing.T) {
	topo := testTopo(t)
	dests := responsiveDests(topo, 10)
	vps := rrCapableVPs(t, topo, dests[0], 4)
	if len(vps) < 2 {
		t.Fatalf("only %d RR-capable VPs", len(vps))
	}
	c := NewFleet(NewCampaign(topo, vps), NewCampaign(topo, nil), 1)
	got := c.PingRRAll(dests, probe.Options{Rate: 200}, nil)
	if len(got) != len(vps) {
		t.Fatalf("results for %d VPs, want %d", len(got), len(vps))
	}
	for name, rs := range got {
		if len(rs) != len(dests) {
			t.Fatalf("%s: %d results, want %d", name, len(rs), len(dests))
		}
		for i, r := range rs {
			if r.Dst != dests[i] {
				t.Errorf("%s: result %d for %v, want %v (order preserved)", name, i, r.Dst, dests[i])
			}
			if r.Type != probe.EchoReply || !r.HasRR {
				t.Errorf("%s → %v: type=%v hasRR=%v", name, r.Dst, r.Type, r.HasRR)
			}
		}
	}
}

func TestCampaignOrderPermutation(t *testing.T) {
	topo := testTopo(t)
	vps := unlimitedVPs(topo)[:1]
	c := NewFleet(NewCampaign(topo, vps), NewCampaign(topo, nil), 1)
	dests := responsiveDests(topo, 6)
	reversed := func(vp string, ds []netip.Addr) []netip.Addr {
		out := make([]netip.Addr, len(ds))
		for i, d := range ds {
			out[len(ds)-1-i] = d
		}
		return out
	}
	got := c.PingRRAll(dests, probe.Options{Rate: 200}, reversed)
	rs := got[vps[0].Name]
	for i := range rs {
		if rs[i].Dst != dests[len(dests)-1-i] {
			t.Fatalf("order not permuted: result %d is %v", i, rs[i].Dst)
		}
	}
}

func TestPingBatchGroupsRepeats(t *testing.T) {
	topo := testTopo(t)
	vp := NewVantagePoint("x", unlimitedVPs(topo)[0].Host, topo.Net.Engine(), 0x5001)
	dests := responsiveDests(topo, 5)
	var grouped [][]probe.Result
	vp.PingBatch(dests, 0, len(dests), 3, probe.Options{Rate: 500}, func(g [][]probe.Result) { grouped = g })
	topo.Net.Engine().Run()
	if len(grouped) != 5 {
		t.Fatalf("groups = %d", len(grouped))
	}
	for i, g := range grouped {
		if len(g) != 3 {
			t.Fatalf("dest %d: %d results, want 3", i, len(g))
		}
		for _, r := range g {
			if r.Dst != dests[i] {
				t.Errorf("group %d holds result for %v", i, r.Dst)
			}
			if r.Type != probe.EchoReply {
				t.Errorf("dest %v ping: %v", r.Dst, r.Type)
			}
		}
	}
}

func TestTTLPingRRBatchPanicsOnLengthMismatch(t *testing.T) {
	topo := testTopo(t)
	raw := unlimitedVPs(topo)[0]
	vp := NewVantagePoint(raw.Name, raw.Host, topo.Net.Engine(), 0x5005)
	defer func() {
		if recover() == nil {
			t.Error("no panic on mismatched ttls")
		}
	}()
	vp.TTLPingRRBatch([]netip.Addr{netip.MustParseAddr("100.0.0.1")}, nil, probe.Options{}, nil)
}
