package alias

import (
	"net/netip"

	"recordroute/internal/probe"
)

// Collect gathers IP-ID series for the candidate addresses by sending
// `rounds` interleaved pings to each (round-robin over addresses, the
// interleaving MIDAR's test depends on) and calls done with the series
// keyed by address. Unanswered probes contribute no samples.
func Collect(p *probe.Prober, addrs []netip.Addr, rounds int, opts probe.Options, done func(map[netip.Addr]Series)) {
	if rounds < 1 {
		rounds = 1
	}
	specs := make([]probe.Spec, 0, rounds*len(addrs))
	for r := 0; r < rounds; r++ {
		for _, a := range addrs {
			specs = append(specs, probe.Spec{Dst: a, Kind: probe.Ping})
		}
	}
	p.StartBatch(specs, opts, func(rs []probe.Result) {
		done(SeriesFrom(rs))
	})
}

// SeriesFrom folds raw ping results into per-address IP-ID series, in
// result order. It is the collection half of Collect for callers that
// schedule the interleaved rounds themselves (e.g. a destination-sharded
// fleet probing contiguous candidate ranges on separate replicas).
// Unanswered probes contribute no samples.
func SeriesFrom(rs []probe.Result) map[netip.Addr]Series {
	series := make(map[netip.Addr]Series)
	for _, r := range rs {
		if r.Type != probe.EchoReply {
			continue
		}
		series[r.Dst] = append(series[r.Dst], Sample{At: r.RcvdAt, ID: r.ReplyIPID})
	}
	return series
}
