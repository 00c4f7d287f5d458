// Package measure implements the study's measurement primitives on top
// of the probe engine: ping, ping-RR, ping-RRudp and TTL-limited ping-RR,
// issued per vantage point, plus the campaign executor (ParallelCampaign)
// that fans a batch, or internal/trace's traces, across every vantage
// point concurrently, over one or more simulator replicas.
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

// Batch sends one probe of the given kind to every destination — ping-RR
// or ping-RRudp (§3.3's reclassification probe). The
// specs are generated as they are launched (probe.Batch), not built into
// a slice per VP per phase.
func (vp *VantagePoint) Batch(dsts []netip.Addr, kind probe.Kind, opts probe.Options, done func([]probe.Result)) {
	vp.Prober.Start(probe.Batch{N: len(dsts), Gen: func(i int) probe.IndexedSpec {
		return probe.IndexedSpec{Index: i, Spec: probe.Spec{Dst: dsts[i], Kind: kind}}
	}}, opts, done)
}

// PingBatch sends count plain pings to each destination of the [lo,hi)
// slice of dests (the paper's responsiveness study sent three), in
// count rounds over all of dests: probe index g = round*len(dests) + i,
// from which the prober derives each probe's send time and sequence
// numbers (probe.Batch), so contiguous ranges run on separate engine
// replicas reproduce the whole batch per destination. The prober lands
// each result in destination-major order (Batch.Rounds), so the results
// come back grouped per destination of the range, in send order: slices
// of one result array, each with its capacity cut to count so that
// appending to one cannot reach into the next.
func (vp *VantagePoint) PingBatch(dests []netip.Addr, lo, hi, count int, opts probe.Options, done func([][]probe.Result)) {
	count = max(count, 1)
	width := hi - lo
	vp.Prober.Start(probe.Batch{N: width * count, Rounds: count, Gen: func(j int) probe.IndexedSpec {
		r, i := j/width, lo+j%width
		return probe.IndexedSpec{Index: r*len(dests) + i, Spec: probe.Spec{Dst: dests[i], Kind: probe.Ping}}
	}}, opts, func(rs []probe.Result) {
		grouped := make([][]probe.Result, width)
		for i := range grouped {
			grouped[i] = rs[i*count : (i+1)*count : (i+1)*count]
		}
		done(grouped)
	})
}

// TTLPingRRBatch sends ping-RRs with per-destination initial TTLs
// (§4.2's low-impact probing). ttls[i] applies to dsts[i].
func (vp *VantagePoint) TTLPingRRBatch(dsts []netip.Addr, ttls []uint8, opts probe.Options, done func([]probe.Result)) {
	if len(ttls) != len(dsts) {
		panic(fmt.Sprintf("measure: %d TTLs for %d destinations", len(ttls), len(dsts)))
	}
	vp.Prober.Start(probe.Batch{N: len(dsts), Gen: func(i int) probe.IndexedSpec {
		return probe.IndexedSpec{Index: i, Spec: probe.Spec{Dst: dsts[i], Kind: probe.TTLPingRR, TTL: ttls[i]}}
	}}, opts, done)
}
