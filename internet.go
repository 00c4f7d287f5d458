package recordroute

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"recordroute/internal/measure"
	"recordroute/internal/obs"
	"recordroute/internal/probe"
	"recordroute/internal/revtr"
	"recordroute/internal/study"
	"recordroute/internal/topology"
	"recordroute/internal/trace"
)

// Internet is a simulated Internet with vantage points and probe
// targets. It is not safe for concurrent use: the underlying
// discrete-event engine is single-threaded.
type Internet struct {
	st *study.Study

	rep    Report       // summaries of the experiments run so far
	obsCfg obs.Observer // accumulated observability config (see obs.go)
}

// New builds a simulated Internet.
func New(opts ...Option) (*Internet, error) {
	var spec study.Spec
	for _, fn := range opts {
		fn(&spec)
	}
	cfg, so, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	st, err := study.New(cfg, so)
	if err != nil {
		return nil, err
	}
	return &Internet{st: st}, nil
}

// MustNew is New, panicking on error; for examples and tests.
func MustNew(opts ...Option) *Internet {
	in, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return in
}

// AttachJournal makes this Internet's campaigns journaled: every
// completed per-VP batch of the sharding-invariant experiments streams
// to the JSONL journal at path as the campaign runs, and — with resume
// set and a compatible journal at path — batches a previous (killed)
// run already completed are skipped, reproducing the uninterrupted run
// byte-identically (DESIGN.md §11). Must be called
// before the first experiment. Resuming against a journal written for
// a different world or different options is refused.
func (in *Internet) AttachJournal(path string, resume bool) error {
	_, err := in.st.AttachJournal(path, resume)
	return err
}

// CloseJournal flushes and closes the journal attached with
// AttachJournal, if any.
func (in *Internet) CloseJournal() error { return in.st.CloseJournal() }

// VPNames lists the platform vantage points (M-Lab then PlanetLab).
func (in *Internet) VPNames() []string {
	out := make([]string, len(in.st.Topo.VPs))
	for i, vp := range in.st.Topo.VPs {
		out[i] = vp.Name
	}
	return out
}

// CloudNames lists the cloud measurement hosts (e.g. gce, ec2).
func (in *Internet) CloudNames() []string {
	out := make([]string, len(in.st.Topo.CloudVPs))
	for i, vp := range in.st.Topo.CloudVPs {
		out[i] = vp.Name
	}
	return out
}

// Destinations lists every probe target (one per advertised prefix).
func (in *Internet) Destinations() []netip.Addr {
	return in.st.Data.Addrs()
}

// NumASes returns the autonomous-system count.
func (in *Internet) NumASes() int { return len(in.st.Topo.ASes) }

// OriginASN maps an address to its origin AS number, or -1.
func (in *Internet) OriginASN(a netip.Addr) int { return in.st.Topo.ASNOf(a) }

// Reply is the outcome of a single probe.
type Reply struct {
	// Responded reports whether anything came back before the timeout.
	Responded bool
	// Kind describes the response ("echo-reply", "time-exceeded",
	// "port-unreachable", "timeout", ...).
	Kind string
	// From is the responding address.
	From netip.Addr
	// RTT is the round-trip time in virtual time.
	RTT time.Duration
	// HasRecordRoute reports whether a Record Route option was present
	// in the response (or in the quoted header of an error); it can be
	// true with an empty RecordedRoute when no router stamped.
	HasRecordRoute bool
	// RecordedRoute holds the Record Route slots recovered from the
	// response (or from the quoted header of an error).
	RecordedRoute []netip.Addr
	// SlotsRemaining is how many free RR slots the response had.
	SlotsRemaining int
	// DestinationStamped reports whether the probed address appears in
	// RecordedRoute — the paper's RR-reachable test.
	DestinationStamped bool
}

// vpOrErr resolves a VP (platform or cloud) by name.
func (in *Internet) vpOrErr(name string) (*measure.VantagePoint, error) {
	if vp := in.st.Camp.VP(name); vp != nil {
		return vp, nil
	}
	if vp := in.st.CloudCamp.VP(name); vp != nil {
		return vp, nil
	}
	return nil, fmt.Errorf("recordroute: unknown vantage point %q", name)
}

// probeOnce sends one probe synchronously (running the virtual clock
// until the response or timeout resolves), with the campaign's timeout,
// retries and adaptive timeouts.
func (in *Internet) probeOnce(vpName string, spec probe.Spec) (Reply, error) {
	vp, err := in.vpOrErr(vpName)
	if err != nil {
		return Reply{}, err
	}
	var res probe.Result
	vp.Prober.StartOneWith(spec, in.st.Opts.ProbeOpts(), func(r probe.Result) { res = r })
	in.st.Camp.Eng.Run()
	return replyFrom(res, spec.Dst), nil
}

func replyFrom(r probe.Result, dst netip.Addr) Reply {
	rep := Reply{
		Responded:      r.Responded(),
		Kind:           r.Type.String(),
		From:           r.From,
		RTT:            r.RTT(),
		SlotsRemaining: r.RRSlotsRemaining(),
	}
	if r.HasRR {
		rep.HasRecordRoute = true
		rep.RecordedRoute = append(rep.RecordedRoute, r.RR...)
		rep.DestinationStamped = r.RRContains(dst)
	}
	return rep
}

// Ping sends a plain ICMP echo request from the named vantage point.
func (in *Internet) Ping(vp string, dst netip.Addr) (Reply, error) {
	return in.probeOnce(vp, probe.Spec{Dst: dst, Kind: probe.Ping})
}

// PingRR sends an echo request with a nine-slot Record Route option.
func (in *Internet) PingRR(vp string, dst netip.Addr) (Reply, error) {
	return in.probeOnce(vp, probe.Spec{Dst: dst, Kind: probe.PingRR})
}

// PingRRWithTTL sends a TTL-limited ping-RR (the §4.2 low-impact probe);
// an expiry error's quoted Record Route is recovered into the Reply.
func (in *Internet) PingRRWithTTL(vp string, dst netip.Addr, ttl uint8) (Reply, error) {
	return in.probeOnce(vp, probe.Spec{Dst: dst, Kind: probe.TTLPingRR, TTL: ttl})
}

// Hop is one traceroute step.
type Hop struct {
	TTL       uint8
	Addr      netip.Addr // zero when silent
	RTT       time.Duration
	Responded bool
	Final     bool
}

// TraceResult is a completed traceroute.
type TraceResult struct {
	Dst     netip.Addr
	Hops    []Hop
	Reached bool
}

// Traceroute runs a TTL-sweep traceroute from the named vantage point.
func (in *Internet) Traceroute(vpName string, dst netip.Addr) (TraceResult, error) {
	vp, err := in.vpOrErr(vpName)
	if err != nil {
		return TraceResult{}, err
	}
	var tr trace.Result
	trace.Each(vp.Name, vp.Prober, []netip.Addr{dst}, 0, trace.Options{Timeout: in.st.Opts.Timeout}, func(ts []trace.Result) { tr = ts[0] })
	in.st.Camp.Eng.Run()
	out := TraceResult{Dst: dst, Reached: tr.Reached}
	for _, h := range tr.Hops {
		out.Hops = append(out.Hops, Hop{
			TTL: h.TTL, Addr: h.Addr, RTT: h.RTT,
			Responded: h.Responded(), Final: h.Final,
		})
	}
	return out, nil
}

// ReversePathResult is a reverse-traceroute measurement.
type ReversePathResult struct {
	// Dst is the remote endpoint; Target the vantage point the path
	// leads back to.
	Dst, Target netip.Addr
	// Hops is the reverse path Dst → Target.
	Hops []netip.Addr
	// Complete reports whether every reverse hop was recovered.
	Complete bool
	// Segments counts the stitched RR measurements used.
	Segments int
}

// ReversePath measures the path *from* dst back *to* the named vantage
// point using stitched, source-spoofed Record Route measurements — the
// Reverse Traceroute technique the paper's reachability analysis
// enables.
func (in *Internet) ReversePath(vpName string, dst netip.Addr) (ReversePathResult, error) {
	target, err := in.vpOrErr(vpName)
	if err != nil {
		return ReversePathResult{}, err
	}
	sys := revtr.New(in.st.Camp.VPs, revtr.Options{
		Timeout: in.st.Opts.Timeout,
		Ranker:  in.revtrRanker(),
	})
	var p revtr.Path
	var rerr error
	done := false
	sys.MeasureReverse(dst, target, func(pp revtr.Path, err error) { p, rerr, done = pp, err, true })
	in.st.Camp.Eng.Run()
	if !done {
		return ReversePathResult{}, fmt.Errorf("recordroute: reverse path measurement stalled")
	}
	if rerr != nil {
		return ReversePathResult{}, rerr
	}
	return ReversePathResult{
		Dst: p.Dst, Target: p.Target, Hops: p.Hops,
		Complete: p.Complete, Segments: p.Segments,
	}, nil
}

// revtrRanker orders candidate spoofers closest-first using cached
// reachability stats when Table 1 has been measured; otherwise it keeps
// the configured order.
func (in *Internet) revtrRanker() func(netip.Addr, []*measure.VantagePoint) []*measure.VantagePoint {
	t1 := in.st.Table1Memo()
	if t1 == nil {
		return nil
	}
	stats := t1.Stats
	return func(target netip.Addr, vps []*measure.VantagePoint) []*measure.VantagePoint {
		st := stats[target]
		out := append([]*measure.VantagePoint(nil), vps...)
		if st == nil {
			return out
		}
		slotOf := func(vp *measure.VantagePoint) int {
			if slot, ok := st.SlotsByVP[vp.Name]; ok && slot > 0 {
				return slot
			}
			return 1 << 20 // unknown: last
		}
		sort.SliceStable(out, func(i, j int) bool { return slotOf(out[i]) < slotOf(out[j]) })
		return out
	}
}

// MLabVPs lists the M-Lab-like vantage points.
func (in *Internet) MLabVPs() []string {
	var out []string
	for _, vp := range in.st.Topo.VPs {
		if vp.Kind == topology.MLab {
			out = append(out, vp.Name)
		}
	}
	return out
}
