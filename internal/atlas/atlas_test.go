package atlas

import (
	"net/netip"
	"strings"
	"testing"

	"recordroute/internal/measure"
	"recordroute/internal/probe"
	"recordroute/internal/topology"
	"recordroute/internal/trace"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

func mkTrace(dst string, hops ...string) trace.Result {
	tr := trace.Result{Dst: a(dst), Reached: true}
	for i, h := range hops {
		if h == "*" {
			tr.Hops = append(tr.Hops, trace.Hop{TTL: uint8(i + 1)})
			continue
		}
		tr.Hops = append(tr.Hops, trace.Hop{TTL: uint8(i + 1), Addr: a(h)})
	}
	tr.Hops = append(tr.Hops, trace.Hop{TTL: uint8(len(hops) + 1), Addr: a(dst), Final: true})
	return tr
}

func mkRRResult(dst string, hops ...string) probe.Result {
	r := probe.Result{
		Spec:         probe.Spec{Dst: a(dst), Kind: probe.PingRR},
		Type:         probe.EchoReply,
		HasRR:        true,
		RRTotalSlots: 9,
	}
	for _, h := range hops {
		r.RR = append(r.RR, a(h))
	}
	return r
}

func TestAtlasMergesProvenance(t *testing.T) {
	at := New(nil)
	at.AddTraceroute(mkTrace("10.9.0.1", "10.1.0.1", "10.2.0.1"))
	// RR sees 10.1.0.1 (both), 10.3.0.1 (RR-only, e.g. anonymous), the
	// dest, then a reverse hop 10.4.0.1.
	at.AddRR(mkRRResult("10.9.0.1", "10.1.0.1", "10.3.0.1", "10.9.0.1", "10.4.0.1"))

	s := at.Stats()
	if s.Interfaces != 4 {
		t.Fatalf("interfaces = %d, want 4", s.Interfaces)
	}
	if s.Both != 1 || s.TracerouteOnly != 1 || s.RROnly != 2 || s.RRReverse != 1 {
		t.Errorf("stats = %+v", s)
	}
	// The destination host must not appear as an interface.
	for _, info := range at.Interfaces() {
		if info.Addr == a("10.9.0.1") {
			t.Error("destination counted as a router interface")
		}
	}
}

func TestAtlasSilentHopsBreakLinks(t *testing.T) {
	at := New(nil)
	at.AddTraceroute(mkTrace("10.9.0.1", "10.1.0.1", "*", "10.3.0.1"))
	if n := at.NumLinks(); n != 0 {
		t.Errorf("links across a silent hop = %d, want 0", n)
	}
	at.AddTraceroute(mkTrace("10.9.0.2", "10.1.0.1", "10.2.0.1"))
	if n := at.NumLinks(); n != 1 {
		t.Errorf("links = %d, want 1", n)
	}
}

func TestAtlasAliasCollapsing(t *testing.T) {
	canon := func(x netip.Addr) netip.Addr {
		if x == a("10.1.0.2") {
			return a("10.1.0.1")
		}
		return x
	}
	at := New(canon)
	at.AddTraceroute(mkTrace("10.9.0.1", "10.1.0.1"))
	at.AddRR(mkRRResult("10.9.0.1", "10.1.0.2", "10.9.0.1"))
	s := at.Stats()
	if s.Interfaces != 1 || s.Both != 1 {
		t.Errorf("alias not collapsed: %+v", s)
	}
}

func TestAtlasRRWithoutDestStampIsForward(t *testing.T) {
	at := New(nil)
	at.AddRR(mkRRResult("10.9.0.1", "10.1.0.1", "10.2.0.1"))
	s := at.Stats()
	if s.RRReverse != 0 {
		t.Errorf("reverse hops inferred without a destination stamp: %+v", s)
	}
	if s.RROnly != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestAtlasStatsRender(t *testing.T) {
	at := New(nil)
	at.AddRR(mkRRResult("10.9.0.1", "10.1.0.1", "10.9.0.1", "10.4.0.1"))
	var sb strings.Builder
	at.Stats().Render(&sb)
	for _, want := range []string{"atlas", "record route only", "reverse paths"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestAtlasFindsAnonymousRoutersInSim drives the full pipeline: in a
// generated Internet, every ground-truth TTL-invisible router that RR
// observed must be classified RR-only — the §2 complementarity claim.
func TestAtlasFindsAnonymousRoutersInSim(t *testing.T) {
	topo := topology.MustBuild(topology.DefaultConfig(topology.Epoch2016).Scale(0.3))
	var vp *topology.VP
	for _, v := range topo.VPs {
		if !v.SourceRateLimited && !topo.ASes[v.ASIdx].FilterOptions {
			vp = v
			break
		}
	}
	m := measure.NewVantagePoint(vp.Name, vp.Host, topo.Net.Engine(), 0x6100)
	at := New(nil)

	// Probe a few hundred destinations with both primitives.
	var dsts []netip.Addr
	for _, d := range topo.Dests {
		if d.GTPingResponsive && !d.GTRRDrop && !topo.ASes[d.ASIdx].FilterOptions {
			dsts = append(dsts, d.Addr)
			if len(dsts) == 150 {
				break
			}
		}
	}
	var rrResults []probe.Result
	m.Batch(dsts, probe.PingRR, probe.Options{Rate: 500}, func(rs []probe.Result) { rrResults = rs })
	topo.Net.Engine().Run()
	var traces []trace.Result
	trace.Each(m.Name, m.Prober, dsts, 200, trace.Options{}, func(ts []trace.Result) { traces = ts })
	topo.Net.Engine().Run()

	for _, r := range rrResults {
		at.AddRR(r)
	}
	for _, tr := range traces {
		at.AddTraceroute(tr)
	}

	s := at.Stats()
	if s.Interfaces == 0 || s.Both == 0 {
		t.Fatalf("degenerate atlas: %+v", s)
	}
	if s.RRReverse == 0 {
		t.Error("no reverse-path interfaces observed")
	}

	// Every observed interface owned by a TTL-invisible router must be
	// RR-only: traceroute cannot elicit a response from it.
	anonChecked := 0
	for _, info := range at.Interfaces() {
		r := topo.RouterByAddr(info.Addr)
		if r == nil || !r.Behavior().NoTTLDecrement {
			continue
		}
		anonChecked++
		if info.Sources.Has(FromTraceroute) {
			t.Errorf("TTL-invisible router %v observed by traceroute", info.Addr)
		}
	}
	t.Logf("atlas: %+v; anonymous interfaces checked: %d", s, anonChecked)
}
