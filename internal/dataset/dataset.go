// Package dataset provides the study's input datasets, shaped like the
// originals: an advertised-prefix table with origin ASes (RouteViews
// RIB-derived), a one-address-per-prefix hitlist (Fan & Heidemann
// style), and an AS classification (CAIDA as2types style). The analysis
// layer consumes these datasets — not topology internals — exactly as
// the paper's pipeline consumed RouteViews and CAIDA files.
package dataset

import (
	"net/netip"
	"sort"

	"recordroute/internal/analysis"
	"recordroute/internal/topology"
)

// PrefixEntry is one advertised prefix and its origin AS.
type PrefixEntry struct {
	Prefix netip.Prefix
	ASN    int
}

// HitlistEntry is the representative probe target for one prefix.
type HitlistEntry struct {
	Prefix netip.Prefix
	Addr   netip.Addr
}

// Dataset bundles the study inputs.
type Dataset struct {
	// Prefixes is the advertised-prefix table, sorted by prefix.
	Prefixes []PrefixEntry
	// Hitlist holds one representative address per prefix.
	Hitlist []HitlistEntry
	// ASType maps origin ASNs to classification labels.
	ASType map[int]string

	// lookup index built lazily by OriginASN.
	byLen   map[int]map[netip.Prefix]int
	lengths []int
}

// FromTopology extracts the datasets a real study would download.
func FromTopology(t *topology.Topology) *Dataset {
	d := &Dataset{ASType: make(map[int]string)}
	for _, dest := range t.Dests {
		asn := t.ASes[dest.ASIdx].ASN
		d.Prefixes = append(d.Prefixes, PrefixEntry{Prefix: dest.Prefix, ASN: asn})
		d.Hitlist = append(d.Hitlist, HitlistEntry{Prefix: dest.Prefix, Addr: dest.Addr})
	}
	for _, as := range t.ASes {
		d.ASType[as.ASN] = as.Type().String()
	}
	sort.Slice(d.Prefixes, func(i, j int) bool {
		return d.Prefixes[i].Prefix.Addr().Less(d.Prefixes[j].Prefix.Addr())
	})
	sort.Slice(d.Hitlist, func(i, j int) bool {
		return d.Hitlist[i].Addr.Less(d.Hitlist[j].Addr)
	})
	return d
}

// OriginASN returns the origin AS for an address using longest known
// prefix containment, or -1. Lookups are indexed by prefix length, so
// repeated calls stay cheap on large tables.
func (d *Dataset) OriginASN(a netip.Addr) int {
	if d.byLen == nil {
		d.byLen = make(map[int]map[netip.Prefix]int)
		for _, p := range d.Prefixes {
			m := d.byLen[p.Prefix.Bits()]
			if m == nil {
				m = make(map[netip.Prefix]int)
				d.byLen[p.Prefix.Bits()] = m
			}
			m[p.Prefix.Masked()] = p.ASN
			d.lengths = appendUniqueDesc(d.lengths, p.Prefix.Bits())
		}
	}
	for _, bits := range d.lengths {
		p, err := a.Prefix(bits)
		if err != nil {
			continue
		}
		if asn, ok := d.byLen[bits][p]; ok {
			return asn
		}
	}
	return -1
}

// appendUniqueDesc inserts v into a descending-sorted unique slice.
func appendUniqueDesc(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return s
		}
		if x < v {
			s = append(s, 0)
			copy(s[i+1:], s[i:])
			s[i] = v
			return s
		}
	}
	return append(s, v)
}

// DestInfos adapts the dataset for Table 1 construction.
func (d *Dataset) DestInfos() []analysis.DestInfo {
	prefixASN := make(map[netip.Prefix]int, len(d.Prefixes))
	for _, p := range d.Prefixes {
		prefixASN[p.Prefix] = p.ASN
	}
	out := make([]analysis.DestInfo, 0, len(d.Hitlist))
	for _, h := range d.Hitlist {
		asn := prefixASN[h.Prefix]
		typ := d.ASType[asn]
		if typ == "" {
			typ = topology.TypeUnknown.String()
		}
		out = append(out, analysis.DestInfo{Addr: h.Addr, ASN: asn, Type: typ})
	}
	return out
}

// Addrs returns every hitlist address in order.
func (d *Dataset) Addrs() []netip.Addr {
	out := make([]netip.Addr, len(d.Hitlist))
	for i, h := range d.Hitlist {
		out[i] = h.Addr
	}
	return out
}
