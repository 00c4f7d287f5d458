package study

import (
	"context"
	"os"
	"testing"

	"recordroute/internal/topology"
)

func TestEpochComparisonShape(t *testing.T) {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(0.3)
	ec, err := RunEpochComparison(context.Background(), cfg, Options{Rate: 200, ShuffleSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ec.Render(os.Stderr)
	if ec.ReachableFrac2016 <= ec.ReachableFrac2011 {
		t.Errorf("2016 reachability %.2f not above 2011 %.2f",
			ec.ReachableFrac2016, ec.ReachableFrac2011)
	}
	if ec.CommonFrac2016 <= ec.CommonFrac2011 {
		t.Errorf("common-VP 2016 %.2f not above 2011 %.2f (topology change must show through)",
			ec.CommonFrac2016, ec.CommonFrac2011)
	}
	if ec.ReachableFrac2011 > 0.5 {
		t.Errorf("2011 reachability %.2f too high, want sparse-peering era ~0.12", ec.ReachableFrac2011)
	}
}

func TestStampAuditShape(t *testing.T) {
	s := testStudy(t, 0.3)
	r := s.RunResponsiveness()
	sa := s.RunStampAudit(r, 50)
	sa.Render(os.Stderr)

	if sa.PairsCompared == 0 {
		t.Fatal("no traceroute/RR pairs compared")
	}
	total := len(sa.Audit.PerAS)
	if total == 0 {
		t.Fatal("no ASes audited")
	}
	// The vast majority must always stamp; never-stampers are needles.
	if frac(len(sa.Audit.Always), total) < 0.8 {
		t.Errorf("always-stamp fraction %.2f, want > 0.8 (paper: 7040/7185)", frac(len(sa.Audit.Always), total))
	}
	if len(sa.Audit.Never) > total/5 {
		t.Errorf("never-stamp count %d of %d, want a handful", len(sa.Audit.Never), total)
	}
	// Ground truth: every configured AS-wide no-stamp transit AS that was
	// observed must be classified Never.
	neverSet := make(map[int]bool)
	for _, asn := range sa.Audit.Never {
		neverSet[asn] = true
	}
	for _, as := range s.Topo.ASes {
		if as.NoStamp {
			if _, observed := sa.Audit.PerAS[as.ASN]; observed && !neverSet[as.ASN] {
				t.Errorf("ground-truth no-stamp AS %d not in Never set", as.ASN)
			}
		}
	}
}

func TestCloudDistanceShape(t *testing.T) {
	s := testStudy(t, 0.3)
	r := s.RunResponsiveness()
	cr := s.RunCloudDistance(r, 150)
	cr.Render(os.Stderr)

	if len(cr.Within8) == 0 {
		t.Fatal("no clouds measured")
	}
	// Clouds peer almost everywhere in 2016: their median distance to
	// the RR-reachable set must not exceed M-Lab's.
	for cloud, med := range cr.CloudMedian {
		if med > cr.MLabMedian+1 {
			t.Errorf("%s median %.0f hops exceeds M-Lab %.0f", cloud, med, cr.MLabMedian)
		}
	}
	for cloud, f := range cr.Within8 {
		if f < 0.1 {
			t.Errorf("%s reaches only %.0f%% of RR-responsive within 8 hops", cloud, 100*f)
		}
	}
}

func TestRateLimitShape(t *testing.T) {
	s := testStudy(t, 0.3)
	r := s.RunResponsiveness()
	rl := s.RunRateLimit(r, 300)
	rl.Render(os.Stderr)

	limited := make(map[string]bool)
	for _, vp := range s.Topo.VPs {
		if vp.SourceRateLimited {
			limited[vp.Name] = true
		}
	}
	if len(limited) == 0 {
		t.Skip("no source-rate-limited VPs at this scale")
	}
	drastic := make(map[string]bool)
	for _, vp := range rl.DrasticDrop {
		drastic[vp] = true
	}
	for vp := range limited {
		if !drastic[vp] {
			t.Errorf("source-limited VP %s did not show a drastic drop", vp)
		}
	}
	// Beyond the configured limiters, drastic drops may only come from
	// organic policers on a VP's first-hop path (an emergent effect the
	// paper also saw); they must stay a small minority.
	if len(rl.DrasticDrop) > len(limited)+3 {
		t.Errorf("%d drastic-drop VPs for %d configured limiters", len(rl.DrasticDrop), len(limited))
	}
	// The majority of VPs must be essentially unaffected by rate.
	unaffected := 0
	for _, v := range rl.PerVP {
		if v.At10 > 0 && v.DropFrac() <= 0.05 {
			unaffected++
		}
	}
	if unaffected < len(rl.PerVP)/2 {
		t.Errorf("only %d of %d VPs unaffected at 100pps", unaffected, len(rl.PerVP))
	}
}

func TestTTLStudyShape(t *testing.T) {
	s := testStudy(t, 0.3)
	r := s.RunResponsiveness()
	tr := s.RunTTLStudy(r, 150)
	tr.Render(os.Stderr)

	// At TTL 64 everyone responds; below TTL 8 reachable response rate
	// must fall under one half (paper: "less than half"); at the 10-12
	// sweet spot reachable mostly respond while unreachable mostly don't.
	if tr.ReachableRate[64] < 0.95 || tr.UnreachableRate[64] < 0.95 {
		t.Errorf("TTL 64 rates %.2f/%.2f, want ~1", tr.ReachableRate[64], tr.UnreachableRate[64])
	}
	if tr.ReachableRate[4] > 0.5 {
		t.Errorf("TTL 4 reachable rate %.2f, want < 0.5", tr.ReachableRate[4])
	}
	if tr.ReachableRate[12] < tr.UnreachableRate[12] {
		t.Errorf("at TTL 12 reachable (%.2f) should lead unreachable (%.2f)",
			tr.ReachableRate[12], tr.UnreachableRate[12])
	}
	// Monotone non-decreasing in TTL (within sampling noise) for the
	// unreachable population at the decision boundary.
	if tr.UnreachableRate[20] < tr.UnreachableRate[10] {
		t.Errorf("unreachable response rate fell with TTL: %.2f@10 vs %.2f@20",
			tr.UnreachableRate[10], tr.UnreachableRate[20])
	}
}

func TestAtlasExperimentShape(t *testing.T) {
	s := testStudy(t, 0.3)
	r := s.RunResponsiveness()
	ar := s.RunAtlas(r, 100)
	ar.Render(os.Stderr)
	if ar.Stats.Interfaces == 0 || ar.Stats.Both == 0 {
		t.Fatalf("degenerate atlas: %+v", ar.Stats)
	}
	if ar.Stats.RRReverse == 0 {
		t.Error("no reverse-path interfaces in atlas")
	}
	if ar.AnonymousLeaked != 0 {
		t.Errorf("%d TTL-invisible routers leaked into traceroute", ar.AnonymousLeaked)
	}
	// RR must contribute interfaces traceroute missed and vice versa.
	if ar.Stats.RROnly == 0 || ar.Stats.TracerouteOnly == 0 {
		t.Errorf("complementarity absent: %+v", ar.Stats)
	}
}

func TestSourceRouteContrast(t *testing.T) {
	s := testStudy(t, 0.3)
	r := s.RunResponsiveness()
	sr := s.RunSourceRouteCheck(r, 40)
	sr.Render(os.Stderr)
	if sr.Probed == 0 {
		t.Fatal("nothing probed")
	}
	if sr.RRRate() < 0.7 {
		t.Errorf("ping-RR rate %.2f on known-responsive targets, want high", sr.RRRate())
	}
	if sr.LSRRRate() > 0.05 {
		t.Errorf("LSRR rate %.2f, want near zero on a modern topology", sr.LSRRRate())
	}
}
