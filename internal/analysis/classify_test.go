package analysis

import (
	"net/netip"
	"testing"

	"recordroute/internal/probe"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

// mkResult builds an echo-reply ping-RR result with the given recorded
// hops out of total slots.
func mkRR(dst netip.Addr, hops []netip.Addr, total int) probe.Result {
	return probe.Result{
		Spec:         probe.Spec{Dst: dst, Kind: probe.PingRR},
		Type:         probe.EchoReply,
		HasRR:        true,
		RR:           hops,
		RRTotalSlots: total,
		RRFull:       len(hops) == total,
	}
}

func TestPingResponsiveAnyOfThree(t *testing.T) {
	dests := []netip.Addr{a("10.0.0.1"), a("10.0.0.2")}
	grouped := [][]probe.Result{
		{{Type: probe.NoResponse}, {Type: probe.EchoReply}, {Type: probe.NoResponse}},
		{{Type: probe.NoResponse}, {Type: probe.NoResponse}, {Type: probe.NoResponse}},
	}
	got := PingResponsive(dests, grouped)
	if !got[dests[0]] {
		t.Error("one reply of three not counted as responsive")
	}
	if got[dests[1]] {
		t.Error("all-timeout dest counted as responsive")
	}
}

func TestAggregateRRClassifications(t *testing.T) {
	d1, d2, d3 := a("20.0.0.1"), a("20.0.0.2"), a("20.0.0.3")
	r1, r2 := a("9.0.0.1"), a("9.0.0.2")
	perVP := map[string][]probe.Result{
		// vp-a reaches d1 at slot 3; d2 responds but never appears
		// (free slots remain → false-negative signature); d3 times out.
		"vp-a": {
			mkRR(d1, []netip.Addr{r1, r2, d1}, 9),
			mkRR(d2, []netip.Addr{r1, r2}, 9),
			{Spec: probe.Spec{Dst: d3}, Type: probe.NoResponse},
		},
		// vp-b reaches d1 closer, at slot 2.
		"vp-b": {
			mkRR(d1, []netip.Addr{r2, d1, r1}, 9),
		},
	}
	stats := AggregateRR(perVP)
	s1 := stats[d1]
	if s1 == nil || !s1.RRResponsive() || !s1.RRReachable() {
		t.Fatalf("d1 stats: %+v", s1)
	}
	if s1.Responses != 2 || s1.MinDestSlot != 2 || s1.ClosestVP != "vp-b" {
		t.Errorf("d1: %+v", s1)
	}
	if !s1.WithinHops(8) || s1.WithinHops(1) {
		t.Errorf("d1 WithinHops wrong")
	}
	s2 := stats[d2]
	if s2 == nil || !s2.RRResponsive() || s2.RRReachable() {
		t.Fatalf("d2 stats: %+v", s2)
	}
	if !s2.SawFreeSlots {
		t.Error("d2 free-slot signature missed")
	}
	if stats[d3] != nil {
		t.Error("timeout created stats for d3")
	}
}

// TestAggregateRRSlotLimits pins the option's edges: a full option
// without the destination is RR-responsive but carries no false-negative
// signature (no room was left to stamp), and a stamp in the ninth slot
// is reachable but beyond the eight-slot reverse-path criterion.
func TestAggregateRRSlotLimits(t *testing.T) {
	full, ninth := a("20.0.0.4"), a("20.0.0.5")
	var hops []netip.Addr
	for i := 1; i <= 8; i++ {
		hops = append(hops, netip.AddrFrom4([4]byte{9, 0, 0, byte(i)}))
	}
	stats := AggregateRR(map[string][]probe.Result{"vp": {
		mkRR(full, []netip.Addr{a("9.0.0.1"), a("9.0.0.2")}, 2),
		mkRR(ninth, append(hops, ninth), 9),
	}})
	t.Run("rr responsive, option full, unstamped", func(t *testing.T) {
		if s := stats[full]; !s.RRResponsive() || s.RRReachable() || s.SawFreeSlots {
			t.Errorf("full unstamped option: %+v, want RR-responsive, unreachable, no free-slot signature", s)
		}
	})
	t.Run("reachable at slot 9", func(t *testing.T) {
		if s := stats[ninth]; s.MinDestSlot != 9 || !s.RRReachable() || s.WithinHops(8) {
			t.Errorf("ninth-slot stamp: %+v, want reachable at slot 9, not within 8", s)
		}
	})
}

func TestAggregateRRRepliesWithoutOption(t *testing.T) {
	d := a("20.0.0.9")
	perVP := map[string][]probe.Result{
		"vp": {{Spec: probe.Spec{Dst: d, Kind: probe.PingRR}, Type: probe.EchoReply, HasRR: false}},
	}
	stats := AggregateRR(perVP)
	if stats[d].RRResponsive() {
		t.Error("reply without copied option counted as RR-responsive")
	}
	if stats[d].RepliesWithoutRR != 1 {
		t.Errorf("RepliesWithoutRR = %d", stats[d].RepliesWithoutRR)
	}
}

func TestApplyAliasesReclassifies(t *testing.T) {
	dst, alias := a("30.0.0.1"), a("30.0.0.129")
	perVP := map[string][]probe.Result{
		"vp": {mkRR(dst, []netip.Addr{a("9.9.9.9"), alias}, 9)},
	}
	stats := AggregateRR(perVP)
	if stats[dst].RRReachable() {
		t.Fatal("reachable before alias resolution")
	}
	aliasOf := func(x netip.Addr) netip.Addr {
		if x == alias || x == dst {
			return dst
		}
		return x
	}
	n := ApplyAliases(stats, perVP, aliasOf)
	if n != 1 {
		t.Fatalf("reclassified %d, want 1", n)
	}
	if !stats[dst].RRReachable() || stats[dst].MinDestSlot != 2 {
		t.Errorf("after aliases: %+v", stats[dst])
	}
}

func TestApplyAliasesIgnoresUnrelatedHops(t *testing.T) {
	dst := a("30.0.0.2")
	perVP := map[string][]probe.Result{
		"vp": {mkRR(dst, []netip.Addr{a("9.9.9.9")}, 9)},
	}
	stats := AggregateRR(perVP)
	if n := ApplyAliases(stats, perVP, func(x netip.Addr) netip.Addr { return x }); n != 0 {
		t.Errorf("identity aliasing reclassified %d", n)
	}
}

func TestApplyRRUDPReclassifies(t *testing.T) {
	dst := a("40.0.0.1")
	// The destination answered ping-RR without stamping itself.
	perVP := map[string][]probe.Result{
		"vp": {mkRR(dst, []netip.Addr{a("9.0.0.1"), a("9.0.0.2")}, 9)},
	}
	stats := AggregateRR(perVP)
	if stats[dst].RRReachable() {
		t.Fatal("unexpectedly reachable")
	}
	udp := map[string][]probe.Result{
		"vp": {{
			Spec:         probe.Spec{Dst: dst, Kind: probe.PingRRUDP},
			Type:         probe.PortUnreachable,
			HasRR:        true,
			QuotedRR:     true,
			RR:           []netip.Addr{a("9.0.0.1"), a("9.0.0.2")},
			RRTotalSlots: 9,
		}},
	}
	if n := ApplyRRUDP(stats, udp); n != 1 {
		t.Fatalf("reclassified %d, want 1", n)
	}
	if !stats[dst].RRReachable() || stats[dst].MinDestSlot != 3 {
		t.Errorf("after RRudp: %+v", stats[dst])
	}
}

func TestApplyRRUDPIgnoresFullOptions(t *testing.T) {
	dst := a("40.0.0.2")
	stats := map[netip.Addr]*RRDestStat{dst: {Addr: dst, Responses: 1, SlotsByVP: map[string]int{}}}
	full := make([]netip.Addr, 9)
	for i := range full {
		full[i] = a("9.0.0.1")
	}
	udp := map[string][]probe.Result{
		"vp": {{
			Spec:         probe.Spec{Dst: dst, Kind: probe.PingRRUDP},
			Type:         probe.PortUnreachable,
			HasRR:        true,
			RR:           full,
			RRTotalSlots: 9,
			RRFull:       true,
		}},
	}
	if n := ApplyRRUDP(stats, udp); n != 0 {
		t.Errorf("full-option quote reclassified %d", n)
	}
}
