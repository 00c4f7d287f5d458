package trace

import (
	"net/netip"
	"testing"
	"time"
)

// dead is inside the address plan but in no AS: the first hops answer,
// then silence.
var dead = netip.MustParseAddr("100.0.200.1")

func TestEachReachesAndOrdersHops(t *testing.T) {
	topo, p, _ := testbed(t)
	dst := pickDests(topo, 1)[0]
	var out []Result
	Each("vp", p, []netip.Addr{dst}, 0, Options{}, func(ts []Result) { out = ts })
	topo.Net.Engine().Run()
	if len(out) != 1 || !out[0].Reached {
		t.Fatalf("trace did not reach %v: %+v", dst, out)
	}
	tr := out[0]
	if tr.DestTTL == 0 || int(tr.DestTTL) != len(tr.Hops) {
		t.Errorf("DestTTL=%d hops=%d", tr.DestTTL, len(tr.Hops))
	}
	last := tr.Hops[len(tr.Hops)-1]
	if !last.Final || last.Addr != dst {
		t.Errorf("final hop = %+v", last)
	}
	for _, h := range tr.HopAddrs() {
		if topo.ASOf(h) < 0 {
			t.Errorf("hop %v outside address plan", h)
		}
	}
}

func TestEachGapLimitStopsDeadTrace(t *testing.T) {
	topo, p, _ := testbed(t)
	var out []Result
	Each("vp", p, []netip.Addr{dead}, 0, Options{}, func(ts []Result) { out = ts })
	topo.Net.Engine().Run()
	if len(out) != 1 {
		t.Fatal("trace never completed")
	}
	tr := out[0]
	if tr.Reached {
		t.Fatal("reached a nonexistent destination")
	}
	silent := 0
	for i := len(tr.Hops) - 1; i >= 0 && !tr.Hops[i].Responded(); i-- {
		silent++
	}
	if silent != gapLimit {
		t.Errorf("trailing silent hops = %d, want gap limit %d", silent, gapLimit)
	}
}

func TestEachBatchCompletes(t *testing.T) {
	topo, p, _ := testbed(t)
	dsts := pickDests(topo, 8)
	var out []Result
	Each("vp", p, dsts, 100, Options{}, func(ts []Result) { out = ts })
	topo.Net.Engine().Run()
	if len(out) != len(dsts) {
		t.Fatalf("traces = %d, want %d", len(out), len(dsts))
	}
	for i, tr := range out {
		if tr.Dst != dsts[i] {
			t.Errorf("trace %d for %v, want %v", i, tr.Dst, dsts[i])
		}
		if !tr.Reached {
			t.Errorf("trace to %v did not reach", tr.Dst)
		}
	}
}

// TestEachStartSchedule pins Each's timing contract: trace i's first
// probe leaves i/rate after the call, and done receives the traces in
// destination order, not completion order (the dead trace, first here,
// waits out its gap limit and finishes last). With no destinations,
// done(nil) runs on the engine, not inside the call.
func TestEachStartSchedule(t *testing.T) {
	topo, p, _ := testbed(t)
	dsts := append([]netip.Addr{dead}, pickDests(topo, 5)...)
	const rate = 40
	first := make(map[netip.Addr]time.Duration)
	p.SetTracer(func(at time.Duration, ev string, dst netip.Addr, _ uint16, _ int) {
		if _, seen := first[dst]; ev == "probe.send" && !seen {
			first[dst] = at
		}
	})
	var t0 time.Duration
	var out, empty []Result
	emptyDone := false
	p.Schedule(7*time.Millisecond, func() {
		t0 = p.Now()
		Each("vp", p, dsts, rate, Options{Timeout: time.Second}, func(ts []Result) { out = ts })
		Each("vp", p, nil, rate, Options{}, func(ts []Result) { empty, emptyDone = ts, true })
		if emptyDone {
			t.Error("Each with no destinations called done inside the call")
		}
	})
	topo.Net.Engine().Run()
	if !emptyDone || empty != nil {
		t.Errorf("Each with no destinations: done called %v with %v", emptyDone, empty)
	}
	if len(out) != len(dsts) {
		t.Fatalf("traces = %d, want %d", len(out), len(dsts))
	}
	for i, d := range dsts {
		if want := t0 + time.Duration(i)*time.Second/rate; first[d] != want {
			t.Errorf("trace %d first probe at %v, want %v", i, first[d], want)
		}
		if out[i].Dst != d {
			t.Errorf("trace %d for %v, want %v", i, out[i].Dst, d)
		}
	}
}
