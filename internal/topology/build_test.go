package topology

import (
	"net/netip"
	"testing"
	"time"

	"recordroute/internal/netsim"
	"recordroute/internal/packet"
)

// testConfig is a small, fast topology for unit tests.
func testConfig() Config {
	return DefaultConfig(Epoch2016).Scale(0.15)
}

func TestBuildProducesConfiguredRoster(t *testing.T) {
	cfg := testConfig()
	topo := MustBuild(cfg)
	want := cfg.NumTier1 + cfg.NumTransit + cfg.NumAccess + cfg.NumEnterprise +
		cfg.NumContent + cfg.NumUnknown + len(cfg.CloudNames)
	if len(topo.ASes) != want {
		t.Fatalf("ASes = %d, want %d", len(topo.ASes), want)
	}
	if len(topo.VPs) != cfg.NumMLab+cfg.NumPlanetLab {
		t.Errorf("VPs = %d, want %d", len(topo.VPs), cfg.NumMLab+cfg.NumPlanetLab)
	}
	if len(topo.CloudVPs) != len(cfg.CloudNames) {
		t.Errorf("CloudVPs = %d", len(topo.CloudVPs))
	}
	if len(topo.Dests) == 0 {
		t.Fatal("no destinations")
	}
	// Destination counts follow the per-AS prefix counts.
	sum := 0
	for _, a := range topo.ASes {
		sum += a.NumPrefixes
	}
	if len(topo.Dests) != sum {
		t.Errorf("Dests = %d, want %d", len(topo.Dests), sum)
	}
}

func TestBuildValidatesConfig(t *testing.T) {
	cfg := testConfig()
	cfg.NumTier1 = 1
	if _, err := Build(cfg); err == nil {
		t.Error("Build accepted a single-tier-1 config")
	}
}

func TestAllASPairsRouted(t *testing.T) {
	topo := MustBuild(testConfig())
	// Every VP AS must reach every destination AS (the generator
	// guarantees a provider chain to the tier-1 clique).
	for _, vp := range topo.VPs {
		for _, d := range topo.Dests {
			if topo.Routes.Path(vp.ASIdx, d.ASIdx) == nil {
				t.Fatalf("no AS path %s(as%d) → as%d", vp.Name, vp.ASIdx, d.ASIdx)
			}
		}
	}
}

func TestAddressPlanRoundTrip(t *testing.T) {
	topo := MustBuild(testConfig())
	for _, d := range topo.Dests {
		if got := topo.ASOf(d.Addr); got != d.ASIdx {
			t.Fatalf("ASOf(%v) = %d, want %d", d.Addr, got, d.ASIdx)
		}
		if !d.Prefix.Contains(d.Addr) {
			t.Fatalf("dest %v outside its prefix %v", d.Addr, d.Prefix)
		}
	}
	for _, vp := range topo.VPs {
		if got := topo.ASOf(vp.Addr); got != vp.ASIdx {
			t.Fatalf("ASOf(%v) = %d, want %d", vp.Addr, got, vp.ASIdx)
		}
	}
	if topo.ASOf(netip.MustParseAddr("8.8.8.8")) != -1 {
		t.Error("off-plan address mapped to an AS")
	}
}

// probeOnce injects a single crafted probe from vp and returns all
// packets the VP receives before the event queue drains.
func probeOnce(t *testing.T, topo *Topology, vp *VP, wire []byte) [][]byte {
	t.Helper()
	var got [][]byte
	vp.Host.SetSniffer(func(_ time.Duration, pkt []byte) {
		cp := make([]byte, len(pkt))
		copy(cp, pkt)
		got = append(got, cp)
	})
	defer vp.Host.SetSniffer(nil)
	vp.Host.Inject(wire)
	topo.Net.Engine().Run()
	return got
}

func craftPing(t *testing.T, src, dst netip.Addr, id uint16, slots int) []byte {
	t.Helper()
	hdr := packet.IPv4{TTL: 64, ID: id, Protocol: packet.ProtocolICMP, Src: src, Dst: dst}
	if slots > 0 {
		if err := hdr.SetRecordRoute(packet.NewRecordRoute(slots)); err != nil {
			t.Fatal(err)
		}
	}
	wire, err := hdr.Marshal(packet.NewEchoRequest(id, 1, nil).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// firstResponsiveDest returns a ground-truth fully responsive dest whose
// AS does not filter options.
func firstResponsiveDest(topo *Topology) *Dest {
	for _, d := range topo.Dests {
		if d.GTPingResponsive && !d.GTRRDrop && !d.GTNoHonorRR && !d.GTAlias.IsValid() &&
			!topo.ASes[d.ASIdx].FilterOptions {
			return d
		}
	}
	return nil
}

func TestGeneratedFabricDeliversPing(t *testing.T) {
	topo := MustBuild(testConfig())
	vp := topo.VPs[0]
	d := firstResponsiveDest(topo)
	if d == nil {
		t.Fatal("no fully responsive destination in test topology")
	}
	got := probeOnce(t, topo, vp, craftPing(t, vp.Addr, d.Addr, 42, 0))
	if len(got) != 1 {
		t.Fatalf("received %d packets, want 1 echo reply", len(got))
	}
	var ip packet.IPv4
	payload, err := ip.Decode(got[0])
	if err != nil {
		t.Fatal(err)
	}
	var icmp packet.ICMP
	if err := icmp.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if icmp.Type != packet.ICMPEchoReply || icmp.ID != 42 || ip.Src != d.Addr {
		t.Errorf("reply: %v id=%d from %v", icmp.Type, icmp.ID, ip.Src)
	}
}

func TestGeneratedFabricStampsValleyFreePath(t *testing.T) {
	topo := MustBuild(testConfig())
	vp := topo.VPs[0]
	d := firstResponsiveDest(topo)
	if d == nil {
		t.Fatal("no responsive dest")
	}
	got := probeOnce(t, topo, vp, craftPing(t, vp.Addr, d.Addr, 43, 9))
	if len(got) != 1 {
		t.Fatalf("received %d packets", len(got))
	}
	var ip packet.IPv4
	if _, err := ip.Decode(got[0]); err != nil {
		t.Fatal(err)
	}
	var rr packet.RecordRoute
	if found, err := ip.RecordRouteOption(&rr); !found || err != nil {
		t.Fatalf("reply RR: found=%v err=%v", found, err)
	}
	if rr.RecordedCount() == 0 {
		t.Fatal("no hops recorded across the generated fabric")
	}
	// Every recorded address must belong to an AS on the policy path
	// (or be the destination itself).
	asPath := topo.Routes.Path(vp.ASIdx, d.ASIdx)
	onPath := make(map[int]bool)
	for _, a := range asPath {
		onPath[a] = true
	}
	for _, hop := range rr.Recorded() {
		asIdx := topo.ASOf(hop)
		if asIdx < 0 || !onPath[asIdx] {
			t.Errorf("hop %v maps to as%d, not on AS path %v", hop, asIdx, asPath)
		}
	}
	// The forward stamps must follow AS-path order (no ping-ponging).
	lastPos := -1
	for _, hop := range rr.Recorded() {
		if hop == d.Addr {
			break // dest stamp; reverse stamps follow
		}
		pos := -1
		for i, a := range asPath {
			if a == topo.ASOf(hop) {
				pos = i
				break
			}
		}
		if pos < lastPos {
			t.Errorf("forward stamps out of AS order: %v", rr.Recorded())
			break
		}
		if pos >= 0 {
			lastPos = pos
		}
	}
}

func TestGeneratedAliasDestStampsAlias(t *testing.T) {
	topo := MustBuild(testConfig())
	var ad *Dest
	for _, d := range topo.Dests {
		if d.GTAlias.IsValid() && d.GTPingResponsive && !d.GTRRDrop && !topo.ASes[d.ASIdx].FilterOptions {
			ad = d
			break
		}
	}
	if ad == nil {
		t.Skip("no alias destination drawn in this seed")
	}
	vp := topo.VPs[0]
	got := probeOnce(t, topo, vp, craftPing(t, vp.Addr, ad.Addr, 44, 9))
	if len(got) != 1 {
		t.Fatalf("received %d packets", len(got))
	}
	var ip packet.IPv4
	if _, err := ip.Decode(got[0]); err != nil {
		t.Fatal(err)
	}
	var rr packet.RecordRoute
	if found, _ := ip.RecordRouteOption(&rr); !found {
		t.Fatal("no RR in reply")
	}
	if rr.Contains(ad.Addr) {
		t.Error("alias dest stamped its probed address")
	}
	if !rr.Full() && !rr.Contains(ad.GTAlias) {
		t.Errorf("alias %v missing from %v", ad.GTAlias, rr.Recorded())
	}
}

func TestBuildDeterministicAcrossRuns(t *testing.T) {
	a := MustBuild(testConfig())
	b := MustBuild(testConfig())
	if len(a.Dests) != len(b.Dests) {
		t.Fatalf("dest counts differ: %d vs %d", len(a.Dests), len(b.Dests))
	}
	for i := range a.Dests {
		if a.Dests[i].Addr != b.Dests[i].Addr ||
			a.Dests[i].GTPingResponsive != b.Dests[i].GTPingResponsive ||
			a.Dests[i].GTRRDrop != b.Dests[i].GTRRDrop {
			t.Fatalf("dest %d differs between identically-seeded builds", i)
		}
	}
	for i := range a.VPs {
		if a.VPs[i].Addr != b.VPs[i].Addr || a.VPs[i].Name != b.VPs[i].Name {
			t.Fatalf("VP %d differs between builds", i)
		}
	}
}

func TestEpochsShareRosterButDifferInPeering(t *testing.T) {
	t16 := MustBuild(DefaultConfig(Epoch2016).Scale(0.15))
	t11 := MustBuild(DefaultConfig(Epoch2011).Scale(0.15))
	if len(t16.ASes) != len(t11.ASes) {
		t.Fatalf("rosters differ: %d vs %d ASes", len(t16.ASes), len(t11.ASes))
	}
	edges := func(topo *Topology) int {
		n := 0
		for a := 0; a < topo.Graph.N(); a++ {
			n += len(topo.Graph.Neighbors(a))
		}
		return n / 2
	}
	e16, e11 := edges(t16), edges(t11)
	if e16 <= e11 {
		t.Errorf("2016 edges (%d) not denser than 2011 (%d)", e16, e11)
	}
	// Average AS-path length from M-Lab hosting ASes to access-network
	// dests must be shorter in the flattened 2016 epoch.
	avg := func(topo *Topology) float64 {
		total, n := 0, 0
		for _, vp := range topo.VPs {
			if vp.Kind != MLab {
				continue
			}
			for _, d := range topo.Dests {
				if topo.ASes[d.ASIdx].Role != RoleAccess {
					continue
				}
				if p := topo.Routes.Path(vp.ASIdx, d.ASIdx); p != nil {
					total += len(p)
					n++
				}
			}
		}
		return float64(total) / float64(n)
	}
	a16, a11 := avg(t16), avg(t11)
	if a16 >= a11 {
		t.Errorf("2016 avg AS path %.2f not shorter than 2011 %.2f", a16, a11)
	}
}

func TestSourceRateLimitedVPHasDedicatedGateway(t *testing.T) {
	topo := MustBuild(testConfig())
	var limited *VP
	for _, vp := range topo.VPs {
		if vp.SourceRateLimited {
			limited = vp
			break
		}
	}
	if limited == nil {
		t.Skip("no rate-limited VP at this scale")
	}
	gw := limited.Host.Uplink().Peer().Owner.(*netsim.Router)
	if gw.Behavior().OptionsRateLimit <= 0 {
		t.Error("limited VP's first-hop router has no options policer")
	}
	// No destination host shares that gateway.
	for _, d := range topo.Dests {
		if up := destHost(topo, d).Uplink(); up != nil && up.Peer().Owner == gw {
			t.Error("destination shares the dedicated VP gateway")
		}
	}
}

func TestCloudInterconnectsLandDeep(t *testing.T) {
	topo := MustBuild(testConfig())
	// Find cloud—access adjacencies and check the access-side border
	// depth can exceed the normal shallow-border limit.
	sawDeep := false
	for _, cloud := range topo.CloudVPs {
		ci := cloud.ASIdx
		for _, nb := range topo.Graph.Neighbors(ci) {
			if topo.ASes[nb.To].Role != RoleAccess {
				continue
			}
			b, ok := topo.borderTo(nb.To, ci)
			if !ok {
				continue
			}
			if topo.depthOf(nb.To, int(b.router)) > 1 {
				sawDeep = true
			}
		}
	}
	if !sawDeep {
		t.Error("no cloud interconnect deeper than the shallow border limit")
	}
	// Non-cloud inter-AS borders at access networks stay shallow.
	for a := 0; a < topo.Graph.N(); a++ {
		if topo.ASes[a].Role != RoleAccess {
			continue
		}
		for _, nb := range topo.Graph.Neighbors(a) {
			if topo.ASes[nb.To].Role == RoleCloud {
				continue
			}
			b, _ := topo.borderTo(a, nb.To)
			if d := topo.depthOf(a, int(b.router)); d > 1 {
				t.Errorf("access as%d border to %v at depth %d", a, topo.ASes[nb.To].Role, d)
			}
		}
	}
}

func TestChainBoostDeepensTrees(t *testing.T) {
	base := testConfig()
	boosted := base
	boosted.ChainBoost = 0.3
	maxDepth := func(topo *Topology) int {
		deepest := 0
		for i := range topo.ASes {
			for j := range topo.Routers[i] {
				if d := topo.depthOf(i, j); d > deepest {
					deepest = d
				}
			}
		}
		return deepest
	}
	avgDepth := func(topo *Topology) float64 {
		total, n := 0, 0
		for i := range topo.ASes {
			for j := range topo.Routers[i] {
				total += topo.depthOf(i, j)
				n++
			}
		}
		return float64(total) / float64(n)
	}
	t0, t1 := MustBuild(base), MustBuild(boosted)
	if avgDepth(t1) <= avgDepth(t0) {
		t.Errorf("ChainBoost did not deepen trees: %.2f vs %.2f", avgDepth(t1), avgDepth(t0))
	}
	_ = maxDepth
}

func TestForwardStampPathMatchesMeasurement(t *testing.T) {
	topo := MustBuild(testConfig())
	d := firstResponsiveDest(topo)
	if d == nil {
		t.Skip("no conformant dest")
	}
	// Find a VP whose ping-RR to d completes (paths through filtering
	// ASes legitimately yield nothing).
	var vp *VP
	var got [][]byte
	for _, cand := range topo.VPs {
		if cand.SourceRateLimited {
			continue
		}
		got = probeOnce(t, topo, cand, craftPing(t, cand.Addr, d.Addr, 90, 9))
		if len(got) == 1 {
			vp = cand
			break
		}
	}
	if vp == nil {
		t.Skip("no VP completed a ping-RR to the chosen dest")
	}
	want := topo.ForwardStampPath(vp.Addr, d.Addr)
	if want == nil {
		t.Fatal("no oracle path")
	}
	var ip packet.IPv4
	if _, err := ip.Decode(got[0]); err != nil {
		t.Fatal(err)
	}
	var rr packet.RecordRoute
	if found, _ := ip.RecordRouteOption(&rr); !found {
		t.Fatal("no RR")
	}
	// The measured forward stamps (before the dest stamp) must equal
	// the oracle path restricted to stamping routers, truncated to the
	// slots available.
	var filtered []netip.Addr
	for _, hop := range want {
		r := topo.RouterByAddr(hop)
		if r != nil && !r.Behavior().NoStampRR {
			filtered = append(filtered, hop)
		}
	}
	var fwd []netip.Addr
	for _, h := range rr.Recorded() {
		if h == d.Addr {
			break
		}
		fwd = append(fwd, h)
	}
	if len(fwd) > len(filtered) {
		t.Fatalf("measured %d fwd stamps, oracle has %d", len(fwd), len(filtered))
	}
	for i := range fwd {
		if fwd[i] != filtered[i] {
			t.Fatalf("stamp %d: measured %v, oracle %v", i, fwd[i], filtered[i])
		}
	}
}

// depthOf returns a router's depth in its AS tree (root = 0).
func (o *oracle) depthOf(as, j int) int {
	d := 0
	for p := o.rtr[o.router(as, j)].parent; p >= 0; p = o.rtr[o.router(as, int(p))].parent {
		d++
	}
	return d
}
