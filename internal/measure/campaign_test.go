package measure

import (
	"net/netip"
	"testing"

	"recordroute/internal/probe"
)

func TestCampaignVPLookup(t *testing.T) {
	topo := testTopo(t)
	c := NewCampaign(topo, topo.VPs[:3])
	if c.VP(topo.VPs[0].Name) == nil {
		t.Error("known VP not found")
	}
	if c.VP("nope") != nil {
		t.Error("unknown VP found")
	}
}

func TestCampaignPingAll(t *testing.T) {
	topo := testTopo(t)
	vps := unlimitedVPs(topo)[:2]
	c := NewFleet(NewCampaign(topo, vps), NewCampaign(topo, nil), 1)
	dests := responsiveDests(topo, 4)
	got := c.PingAll(dests, 2, probe.Options{Rate: 500})
	for _, vp := range vps {
		groups := got[vp.Name]
		if len(groups) != len(dests) {
			t.Fatalf("%s: %d groups", vp.Name, len(groups))
		}
		for i, g := range groups {
			if len(g) != 2 {
				t.Fatalf("dest %d: %d results", i, len(g))
			}
		}
	}
}

func TestCampaignPingRRUDPAll(t *testing.T) {
	topo := testTopo(t)
	var udpDest netip.Addr
	for _, d := range topo.Dests {
		if d.GTUDPResponsive && !d.GTRRDrop && !topo.ASes[d.ASIdx].FilterOptions {
			udpDest = d.Addr
			break
		}
	}
	if !udpDest.IsValid() {
		t.Skip("no UDP-responsive dest")
	}
	vps := rrCapableVPs(t, topo, udpDest, 1)
	if len(vps) == 0 {
		t.Skip("no capable VP")
	}
	c := NewFleet(NewCampaign(topo, vps), NewCampaign(topo, nil), 1)
	got := c.PingRRUDPAll(map[string][]netip.Addr{vps[0].Name: {udpDest}}, probe.Options{Rate: 100})
	rs := got[vps[0].Name]
	if len(rs) != 1 || rs[0].Type != probe.PortUnreachable {
		t.Errorf("results = %+v", rs)
	}
}

func TestCampaignTTLPingRRAll(t *testing.T) {
	topo := testTopo(t)
	dests := responsiveDests(topo, 2)
	vps := rrCapableVPs(t, topo, dests[0], 1)
	if len(vps) == 0 {
		t.Skip("no capable VP")
	}
	c := NewFleet(NewCampaign(topo, vps), NewCampaign(topo, nil), 1)
	perVP := map[string][]netip.Addr{vps[0].Name: dests}
	ttls := map[string][]uint8{vps[0].Name: {2, 64}}
	got := c.TTLPingRRAll(perVP, ttls, probe.Options{Rate: 100})
	rs := got[vps[0].Name]
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[0].Type != probe.TimeExceeded {
		t.Errorf("ttl-2 probe: %v, want expiry", rs[0].Type)
	}
	if rs[1].Type != probe.EchoReply {
		t.Errorf("ttl-64 probe: %v, want reply", rs[1].Type)
	}
}

func TestCampaignEmptyPerVPMapsSkip(t *testing.T) {
	topo := testTopo(t)
	c := NewFleet(NewCampaign(topo, topo.VPs[:2]), NewCampaign(topo, nil), 1)
	if got := c.TracerouteAll(nil, probe.Options{}); len(got) != 0 {
		t.Errorf("traceroutes from empty map: %d", len(got))
	}
	if got := c.PingRRUDPAll(nil, probe.Options{}); len(got) != 0 {
		t.Errorf("udp from empty map: %d", len(got))
	}
}
