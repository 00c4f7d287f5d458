package alias

import (
	"net/netip"

	"recordroute/internal/probe"
)

// SeriesFrom folds raw ping results into per-address IP-ID series, in
// result order. The caller schedules the pings: interleaved rounds over
// the candidates (round-robin over addresses, the interleaving MIDAR's
// test depends on), such as a destination-sharded fleet sends over
// contiguous candidate ranges on separate replicas. Unanswered probes
// contribute no samples.
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
