package recordroute

import (
	"encoding/json"
	"io"
	"net/netip"
	"strings"
	"testing"
	"time"

	"recordroute/internal/study"
	"recordroute/internal/topology"
)

// smallInternet builds a fast test Internet.
func smallInternet(t *testing.T) *Internet {
	t.Helper()
	in, err := New(WithScale(0.15), WithProbeRate(200))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewRejectsBadScale(t *testing.T) {
	if _, err := New(WithScale(-1)); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestInternetInventory(t *testing.T) {
	in := smallInternet(t)
	if len(in.VPNames()) == 0 || len(in.Destinations()) == 0 {
		t.Fatal("empty inventory")
	}
	if len(in.CloudNames()) != 3 {
		t.Errorf("clouds = %v", in.CloudNames())
	}
	if in.NumASes() == 0 {
		t.Error("no ASes")
	}
	if m, p := platformSplit(in); m+p != len(in.VPNames()) || m != len(in.MLabVPs()) {
		t.Errorf("platform split inconsistent: %d M-Lab and %d PlanetLab of %v", m, p, in.VPNames())
	}
	if vp := in.st.Topo.VPByName(in.MLabVPs()[0]); vp == nil || vp.Kind.String() != "mlab" {
		t.Errorf("MLabVPs()[0] is %+v", vp)
	}
}

// platformSplit counts the M-Lab and PlanetLab vantage points.
func platformSplit(in *Internet) (mlab, planetlab int) {
	for _, vp := range in.st.Topo.VPs {
		switch vp.Kind {
		case topology.MLab:
			mlab++
		case topology.PlanetLab:
			planetlab++
		}
	}
	return mlab, planetlab
}

// respondingDest finds a destination that answers ping-RR from vp.
func respondingDest(t *testing.T, in *Internet, vp string) (dst Reply, addr string) {
	t.Helper()
	for _, d := range in.Destinations() {
		r, err := in.PingRR(vp, d)
		if err != nil {
			t.Fatal(err)
		}
		if r.Responded && len(r.RecordedRoute) > 0 {
			return r, d.String()
		}
	}
	t.Fatal("no destination answered ping-RR")
	return Reply{}, ""
}

func TestPingAndPingRR(t *testing.T) {
	in := smallInternet(t)
	vp := in.MLabVPs()[len(in.MLabVPs())-1] // late VPs are never rate-limited
	reply, addr := respondingDest(t, in, vp)
	if reply.Kind != "echo-reply" {
		t.Errorf("kind = %q", reply.Kind)
	}
	if reply.From.String() != addr {
		t.Errorf("reply from %v, probed %v", reply.From, addr)
	}
	if reply.RTT <= 0 {
		t.Error("non-positive RTT")
	}
	if reply.DestinationStamped && reply.SlotsRemaining < 0 {
		t.Error("inconsistent RR accounting")
	}
}

// TestPingRRAllocs pins the allocation contract of everything under the
// facade: a ping-RR costs nothing in the prober and nothing per hop.
func TestPingRRAllocs(t *testing.T) {
	in := benchInternet(t)
	vp := in.MLabVPs()[len(in.MLabVPs())-1]
	dst := in.Destinations()[0]
	pingRR := func() {
		if _, err := in.PingRR(vp, dst); err != nil {
			t.Fatal(err)
		}
	}
	net := in.st.Topo.Net
	tx0 := net.Counter("link.tx")
	pingRR() // warms route memos and the buffer pool
	hops := net.Counter("link.tx") - tx0
	// What this probe allocates whatever its path, none of it the
	// prober's: the facade's result holder, its done closure and the
	// reply's route copy. A forward path that allocated per hop would add
	// this probe's hop count on top.
	const facadeAllocs = 3
	if hops <= facadeAllocs {
		t.Fatalf("ping-RR crossed %d links: too short a path to tell per-hop allocation from the facade's", hops)
	}
	if allocs := testing.AllocsPerRun(20, pingRR); allocs > facadeAllocs {
		t.Errorf("ping-RR over %d hops allocates %v times, want at most the facade's %d", hops, allocs, facadeAllocs)
	}
}

func TestTracerouteFacade(t *testing.T) {
	in := smallInternet(t)
	vp := in.MLabVPs()[len(in.MLabVPs())-1]
	reply, _ := respondingDest(t, in, vp)
	tr, err := in.Traceroute(vp, reply.From)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Reached {
		t.Fatalf("traceroute did not reach %v", reply.From)
	}
	last := tr.Hops[len(tr.Hops)-1]
	if !last.Final || last.Addr != reply.From {
		t.Errorf("final hop %+v", last)
	}
}

func TestPingRRWithTTLQuotesRoute(t *testing.T) {
	in := smallInternet(t)
	vp := in.MLabVPs()[len(in.MLabVPs())-1]
	reply, _ := respondingDest(t, in, vp)
	low, err := in.PingRRWithTTL(vp, reply.From, 2)
	if err != nil {
		t.Fatal(err)
	}
	if low.Kind != "time-exceeded" {
		t.Fatalf("kind = %q, want time-exceeded", low.Kind)
	}
	if !low.HasRecordRoute {
		t.Error("no RR option recovered from the quoted header")
	}
}

func TestReversePathFacade(t *testing.T) {
	in := smallInternet(t)
	vp := in.MLabVPs()[len(in.MLabVPs())-1]
	// Try nearby destinations (stamped with room to spare) until one
	// yields a non-empty reverse path; a destination whose reply path
	// crosses only non-stamping routers legitimately yields none.
	tried := 0
	for _, d := range in.Destinations() {
		r, err := in.PingRR(vp, d)
		if err != nil {
			t.Fatal(err)
		}
		if !r.DestinationStamped || r.SlotsRemaining <= 2 {
			continue
		}
		tried++
		rp, err := in.ReversePath(vp, d)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Segments < 1 {
			t.Fatal("no segments")
		}
		if len(rp.Hops) > 0 {
			return // success
		}
		if tried >= 5 {
			break
		}
	}
	if tried == 0 {
		t.Skip("no close destination")
	}
	t.Errorf("no reverse path found across %d close destinations", tried)
}

func TestTable1Facade(t *testing.T) {
	in := smallInternet(t)
	var sb strings.Builder
	if err := in.Run("table1", &sb, Params{}); err != nil {
		t.Fatal(err)
	}
	sum := in.Report().Table1
	if sum.Probed == 0 || sum.PingResponsive == 0 || sum.RRResponsive == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.RRRatioByIP <= 0.5 || sum.RRRatioByIP > 1 {
		t.Errorf("by-IP ratio %v", sum.RRRatioByIP)
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("render missing header")
	}
	// Cached: a second run is instant and identical.
	if err := in.Run("table1", nil, Params{}); err != nil {
		t.Fatal(err)
	}
	if again := in.Report().Table1; again != sum {
		t.Error("cached responsiveness differs")
	}
}

// runAll runs the "all" selection the way rrstudy does, a blank line
// between renders.
func runAll(t *testing.T, in *Internet, w io.Writer) Report {
	t.Helper()
	names, err := Experiments("all")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if i > 0 && w != nil {
			io.WriteString(w, "\n")
		}
		if err := in.Run(name, w, Params{}); err != nil {
			t.Fatal(err)
		}
	}
	return in.Report()
}

func TestRunAllRendersEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	in := smallInternet(t)
	var sb strings.Builder
	rep := runAll(t, in, &sb)
	if rep.Table1.Probed == 0 || rep.Reachability.ReachableFrac <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Figure 1", "Figure 2", "§3.5", "Figure 3", "Figure 4", "Figure 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("the all selection's output is missing %q", want)
		}
	}
}

func TestExperimentSelection(t *testing.T) {
	_, err := Experiments("fig9")
	if err == nil || !strings.Contains(err.Error(), "table1") || !strings.Contains(err.Error(), "epochs-live") {
		t.Errorf("unknown selector: err = %v, want the registered names listed", err)
	}
	if names, err := Experiments("fig5"); err != nil || len(names) != 1 || names[0] != "fig5" {
		t.Errorf(`Experiments("fig5") = %v, %v`, names, err)
	}
	if err := smallInternet(t).Run("all", nil, Params{}); err == nil {
		t.Error(`Run accepted the "all" selector; it runs one registered name`)
	}
}

// TestFigure2HonoursScaleProfile: Figure 2 measures the Internet's own
// world, so under a scale profile its 2016 epoch probes that profile's
// destinations, and its render is not the default scale's.
func TestFigure2HonoursScaleProfile(t *testing.T) {
	fig2 := func(in *Internet) (*study.EpochComparison, string) {
		e, err := study.Lookup("fig2")
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(in.st, Params{})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		res.Render(&sb)
		return res.(*study.EpochComparison), sb.String()
	}
	small := MustNew(WithScaleProfile("small"), WithProbeRate(200))
	ec, smallRender := fig2(small)
	if ec.Dests2016 != len(small.Destinations()) {
		t.Errorf("Figure 2's 2016 world probed %d destinations, the small profile has %d",
			ec.Dests2016, len(small.Destinations()))
	}
	if testing.Short() {
		return
	}
	if _, render := fig2(MustNew(WithScale(1), WithProbeRate(200))); render == smallRender {
		t.Error("Figure 2 renders the same under the small profile as at scale 1.0")
	}
}

func TestTimeoutOptionApplies(t *testing.T) {
	in := MustNew(WithScale(0.15), WithTimeout(500*time.Millisecond), WithProbeRate(200))
	// An unresponsive address inside the plan times out at the custom
	// timeout, visible as a short virtual-clock run.
	var dead string
	for _, d := range in.Destinations() {
		r, err := in.Ping(in.MLabVPs()[len(in.MLabVPs())-1], d)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Responded {
			dead = d.String()
			break
		}
	}
	if dead == "" {
		t.Skip("every destination responded")
	}
}

// TestEpochOptionBuilds2011: WithEpoch(Epoch2011) builds the
// sparse-peering world, whose vantage points are the 2011 mix — few
// M-Lab sites, PlanetLab dominating — where 2016's are mostly M-Lab.
func TestEpochOptionBuilds2011(t *testing.T) {
	in := MustNew(WithScale(0.15), WithEpoch(Epoch2011))
	if got := in.st.Topo.Cfg.Epoch; got != topology.Epoch2011 {
		t.Fatalf("built the %v world", got)
	}
	for _, c := range []struct {
		in   *Internet
		want topology.Config
	}{
		{in, topology.DefaultConfig(topology.Epoch2011).Scale(0.15)},
		{MustNew(WithScale(0.15)), topology.DefaultConfig(topology.Epoch2016).Scale(0.15)},
	} {
		if m, p := platformSplit(c.in); m != c.want.NumMLab || p != c.want.NumPlanetLab {
			t.Errorf("%v: %d M-Lab and %d PlanetLab VPs, want %d and %d", c.want.Epoch, m, p, c.want.NumMLab, c.want.NumPlanetLab)
		}
	}
	if m, p := platformSplit(in); m >= p {
		t.Errorf("2011 world has %d M-Lab VPs and %d PlanetLab: not the 2011 mix", m, p)
	}
}

// TestRetriesOptionRetransmits: WithRetries(n) gives the campaign's
// probes n retransmissions, which the probes that time out use; without
// the option nothing is sent twice. The facade's direct probes get the
// same budget: a ping-RR that nothing answers is sent n more times.
func TestRetriesOptionRetransmits(t *testing.T) {
	for _, n := range []int{0, 2} {
		in := MustNew(WithScale(0.15), WithProbeRate(200), WithShards(1), WithRetries(n))
		if err := in.Run("table1", io.Discard, Params{}); err != nil {
			t.Fatal(err)
		}
		var resent uint64
		for _, vp := range in.st.Camp.VPs {
			resent += vp.Prober.Retransmits()
		}
		if (resent > 0) != (n > 0) {
			t.Errorf("WithRetries(%d): Table 1 retransmitted %d probes", n, resent)
		}
		vp := in.st.Camp.VPs[0]
		before := vp.Prober.Retransmits()
		if r, err := in.PingRR(vp.Name, mustAddr("198.51.100.1")); err != nil || r.Responded {
			t.Fatalf("ping-RR to an address nothing owns: %+v, %v", r, err)
		}
		if got := vp.Prober.Retransmits() - before; got != uint64(n) {
			t.Errorf("WithRetries(%d): an unanswered PingRR was retransmitted %d times", n, got)
		}
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestFacadeErrorPaths(t *testing.T) {
	in := smallInternet(t)
	dst := in.Destinations()[0]
	if _, err := in.Ping("no-such-vp", dst); err == nil {
		t.Error("Ping accepted unknown VP")
	}
	if _, err := in.Traceroute("no-such-vp", dst); err == nil {
		t.Error("Traceroute accepted unknown VP")
	}
	if _, err := in.ReversePath("no-such-vp", dst); err == nil {
		t.Error("ReversePath accepted unknown VP")
	}
}

func TestCloudVPCanProbe(t *testing.T) {
	in := smallInternet(t)
	cloud := in.CloudNames()[0]
	responded := false
	for _, d := range in.Destinations()[:50] {
		r, err := in.PingRR(cloud, d)
		if err != nil {
			t.Fatal(err)
		}
		if r.Responded {
			responded = true
			break
		}
	}
	if !responded {
		t.Error("cloud VP could not complete any ping-RR")
	}
}

func TestReportMarshalsToJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	rep := runAll(t, smallInternet(t), nil)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Table1 != rep.Table1 || back.Atlas != rep.Atlas {
		t.Error("report did not round-trip through JSON")
	}
}
