// Package measure implements the study's measurement primitives on top
// of the probe engine: ping, ping-RR, ping-RRudp, TTL-limited ping-RR,
// and traceroute, issued per vantage point, plus campaign helpers that
// fan a batch across every vantage point concurrently inside one
// simulation engine run.
package measure

import (
	"fmt"
	"net/netip"

	"recordroute/internal/netsim"
	"recordroute/internal/probe"
)

// VantagePoint couples a named measurement source with its prober.
type VantagePoint struct {
	// Name identifies the VP in results (e.g. "mlab-3").
	Name string
	// Prober sends and matches this VP's probes.
	Prober *probe.Prober
}

// NewVantagePoint wires a prober to a simulated host. id must be unique
// per VP so replies never cross-match.
func NewVantagePoint(name string, host *netsim.Host, eng *netsim.Engine, id uint16) *VantagePoint {
	return &VantagePoint{
		Name:   name,
		Prober: probe.New(probe.NewSimTransport(host, eng), id),
	}
}

// specsFor expands destinations into probe specs of one kind.
func specsFor(dsts []netip.Addr, kind probe.Kind) []probe.Spec {
	specs := make([]probe.Spec, len(dsts))
	for i, d := range dsts {
		specs[i] = probe.Spec{Dst: d, Kind: kind}
	}
	return specs
}

// PingBatch sends count plain pings to every destination (the paper's
// responsiveness study sent three) and reports all results, grouped
// per destination in send order.
func (vp *VantagePoint) PingBatch(dsts []netip.Addr, count int, opts probe.Options, done func([][]probe.Result)) {
	if count < 1 {
		count = 1
	}
	specs := make([]probe.Spec, 0, count*len(dsts))
	for r := 0; r < count; r++ {
		for _, d := range dsts {
			specs = append(specs, probe.Spec{Dst: d, Kind: probe.Ping})
		}
	}
	vp.Prober.StartBatch(specs, opts, func(rs []probe.Result) { done(groupRounds(rs, len(dsts), count)) })
}

// groupRounds regroups a round-major batch — count rounds over width
// destinations, result r*width+i being round r of destination i — per
// destination in send order. The groups are carved out of one array,
// each with its capacity cut to count so that appending to one cannot
// reach into the next.
func groupRounds(rs []probe.Result, width, count int) [][]probe.Result {
	grouped := make([][]probe.Result, width)
	flat := make([]probe.Result, 0, width*count)
	for i := range grouped {
		for r := 0; r < count; r++ {
			flat = append(flat, rs[r*width+i])
		}
		grouped[i] = flat[i*count : (i+1)*count : (i+1)*count]
	}
	return grouped
}

// PingBatchRange sends the [lo,hi) destination slice of a count-round
// indexed ping batch over dests. The global schedule is PingBatch's —
// count rounds, round-major, index g = round*len(dests) + destIdx — but
// every probe derives its send time and sequence numbers from g via
// StartIndexedBatch, so contiguous ranges run on separate engine
// replicas reproduce the unsplit batch per destination. Results come
// back grouped per destination of the range, in send order.
func (vp *VantagePoint) PingBatchRange(dests []netip.Addr, lo, hi, count int, opts probe.Options, done func([][]probe.Result)) {
	if count < 1 {
		count = 1
	}
	width := hi - lo
	specs := make([]probe.IndexedSpec, 0, width*count)
	for r := 0; r < count; r++ {
		for i := lo; i < hi; i++ {
			specs = append(specs, probe.IndexedSpec{Index: r*len(dests) + i, Spec: probe.Spec{Dst: dests[i], Kind: probe.Ping}})
		}
	}
	vp.Prober.StartIndexedBatch(specs, opts, func(rs []probe.Result) { done(groupRounds(rs, width, count)) })
}

// PingSeriesSlice sends the selected addresses' slice of a rounds-round
// interleaved ping series over addrs (alias collection's IP-ID sampling
// schedule): round-major, global index g = round*len(addrs) + addrIdx.
// sel lists this slice's addr indices in increasing order. Results
// arrive in slice spec order — rounds blocks of len(sel).
func (vp *VantagePoint) PingSeriesSlice(addrs []netip.Addr, sel []int, rounds int, opts probe.Options, done func([]probe.Result)) {
	specs := make([]probe.IndexedSpec, 0, len(sel)*rounds)
	for r := 0; r < rounds; r++ {
		for _, i := range sel {
			specs = append(specs, probe.IndexedSpec{Index: r*len(addrs) + i, Spec: probe.Spec{Dst: addrs[i], Kind: probe.Ping}})
		}
	}
	vp.Prober.StartIndexedBatch(specs, opts, done)
}

// PingRRBatch sends one ping-RR to every destination.
func (vp *VantagePoint) PingRRBatch(dsts []netip.Addr, opts probe.Options, done func([]probe.Result)) {
	vp.Prober.StartBatch(specsFor(dsts, probe.PingRR), opts, done)
}

// PingRRUDPBatch sends one ping-RRudp to every destination (§3.3's
// reclassification probe).
func (vp *VantagePoint) PingRRUDPBatch(dsts []netip.Addr, opts probe.Options, done func([]probe.Result)) {
	vp.Prober.StartBatch(specsFor(dsts, probe.PingRRUDP), opts, done)
}

// PingTSBatch sends one Internet Timestamp probe to every destination.
func (vp *VantagePoint) PingTSBatch(dsts []netip.Addr, opts probe.Options, done func([]probe.Result)) {
	vp.Prober.StartBatch(specsFor(dsts, probe.PingTS), opts, done)
}

// TTLPingRRBatch sends ping-RRs with per-destination initial TTLs
// (§4.2's low-impact probing). ttls[i] applies to dsts[i].
func (vp *VantagePoint) TTLPingRRBatch(dsts []netip.Addr, ttls []uint8, opts probe.Options, done func([]probe.Result)) {
	if len(ttls) != len(dsts) {
		panic(fmt.Sprintf("measure: %d TTLs for %d destinations", len(ttls), len(dsts)))
	}
	specs := make([]probe.Spec, len(dsts))
	for i, d := range dsts {
		specs[i] = probe.Spec{Dst: d, Kind: probe.TTLPingRR, TTL: ttls[i]}
	}
	vp.Prober.StartBatch(specs, opts, done)
}
