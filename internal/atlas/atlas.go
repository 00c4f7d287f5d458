// Package atlas merges measurements into an interface-level topology
// map — the paper's §2 motivation that Record Route and traceroute
// *complement* each other: RR sees routers that do not decrement TTL
// (MPLS interiors, "anonymous" routers) and reverse-path hops invisible
// to traceroute, while traceroute sees routers that do not stamp RR and
// hops beyond the nine-slot limit.
//
// The atlas is deliberately simple compared to full systems like
// DisCarte (Sherwood et al., SIGCOMM 2008): it unions interface
// observations under an alias canonicalizer and tracks per-interface
// provenance, without attempting exact RR/traceroute path alignment
// (which the paper itself notes is hard, §3.5).
package atlas

import (
	"fmt"
	"io"
	"net/netip"
	"sort"

	"recordroute/internal/probe"
	"recordroute/internal/trace"
)

// Source is a bitmask of measurement kinds that observed an interface
// or link.
type Source uint8

const (
	// FromTraceroute marks hops seen in TTL-expiry responses.
	FromTraceroute Source = 1 << iota
	// FromRRForward marks RR slots recorded before the destination's
	// own stamp.
	FromRRForward
	// FromRRReverse marks RR slots recorded after the destination's
	// stamp — reverse-path hops traceroute cannot see.
	FromRRReverse
)

// Has reports whether s includes all bits of q.
func (s Source) Has(q Source) bool { return s&q == q }

// String renders the bitmask compactly.
func (s Source) String() string {
	out := ""
	add := func(bit Source, tag string) {
		if s.Has(bit) {
			if out != "" {
				out += "+"
			}
			out += tag
		}
	}
	add(FromTraceroute, "trace")
	add(FromRRForward, "rr-fwd")
	add(FromRRReverse, "rr-rev")
	if out == "" {
		return "none"
	}
	return out
}

// Atlas accumulates interface and link observations.
type Atlas struct {
	// canon maps an address to its alias-set representative (identity
	// when unknown).
	canon func(netip.Addr) netip.Addr

	ifaces map[netip.Addr]Source
	links  map[[2]netip.Addr]Source
}

// New returns an empty atlas. aliasOf may be nil (no alias collapsing).
func New(aliasOf func(netip.Addr) netip.Addr) *Atlas {
	if aliasOf == nil {
		aliasOf = func(a netip.Addr) netip.Addr { return a }
	}
	return &Atlas{
		canon:  aliasOf,
		ifaces: make(map[netip.Addr]Source),
		links:  make(map[[2]netip.Addr]Source),
	}
}

// observe records one interface sighting.
func (a *Atlas) observe(addr netip.Addr, src Source) netip.Addr {
	c := a.canon(addr)
	a.ifaces[c] |= src
	return c
}

// observeLink records a directed adjacency between canonical interfaces.
func (a *Atlas) observeLink(from, to netip.Addr, src Source) {
	if from == to {
		return
	}
	a.links[[2]netip.Addr{from, to}] |= src
}

// AddTraceroute merges a completed traceroute. Consecutive responding
// hops become links; silent hops break adjacency (the gap could hide
// any number of routers).
func (a *Atlas) AddTraceroute(tr trace.Result) {
	var prev netip.Addr
	havePrev := false
	for _, h := range tr.Hops {
		if !h.Responded() {
			havePrev = false
			continue
		}
		if h.Final {
			break // the destination is a host, not a router interface
		}
		c := a.observe(h.Addr, FromTraceroute)
		if havePrev {
			a.observeLink(prev, c, FromTraceroute)
		}
		prev, havePrev = c, true
	}
}

// AddRR merges a ping-RR result: slots before the destination's stamp
// are forward hops, slots after it are reverse hops. When the
// destination (or an alias of it) never appears, every slot is treated
// as forward — the probe may simply have run out of room.
func (a *Atlas) AddRR(r probe.Result) {
	if !r.HasRR || len(r.RR) == 0 {
		return
	}
	destCanon := a.canon(r.Dst)
	split := -1
	for i, h := range r.RR {
		if a.canon(h) == destCanon {
			split = i
			break
		}
	}
	var prev netip.Addr
	havePrev := false
	for i, h := range r.RR {
		if i == split {
			havePrev = false // the destination itself is not a router
			continue
		}
		src := FromRRForward
		if split >= 0 && i > split {
			src = FromRRReverse
		}
		c := a.observe(h, src)
		if havePrev {
			a.observeLink(prev, c, src)
		}
		prev, havePrev = c, true
	}
}

// Interfaces returns each observed canonical interface with its
// provenance, sorted by address.
func (a *Atlas) Interfaces() []InterfaceInfo {
	out := make([]InterfaceInfo, 0, len(a.ifaces))
	for addr, src := range a.ifaces {
		out = append(out, InterfaceInfo{Addr: addr, Sources: src})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Less(out[j].Addr) })
	return out
}

// InterfaceInfo is one observed interface.
type InterfaceInfo struct {
	Addr    netip.Addr
	Sources Source
}

// NumLinks returns the count of observed directed adjacencies.
func (a *Atlas) NumLinks() int { return len(a.links) }

// Stats summarizes what each measurement primitive contributed.
type Stats struct {
	// Interfaces is the total observed (alias-collapsed).
	Interfaces int
	// Both were seen by traceroute and RR; the exclusive counts measure
	// each primitive's unique contribution (§2's complementarity).
	Both, TracerouteOnly, RROnly int
	// RRReverse counts interfaces seen on reverse paths — invisible to
	// any forward measurement.
	RRReverse int
	// Links is the number of observed adjacencies.
	Links int
}

// Stats computes the provenance summary.
func (a *Atlas) Stats() Stats {
	s := Stats{Interfaces: len(a.ifaces), Links: len(a.links)}
	for _, src := range a.ifaces {
		rr := src&(FromRRForward|FromRRReverse) != 0
		tr := src.Has(FromTraceroute)
		switch {
		case rr && tr:
			s.Both++
		case rr:
			s.RROnly++
		case tr:
			s.TracerouteOnly++
		}
		if src.Has(FromRRReverse) {
			s.RRReverse++
		}
	}
	return s
}

// Render prints the complementarity summary.
func (s Stats) Render(w io.Writer) {
	fmt.Fprintln(w, "== topology atlas: what RR and traceroute each uncover (§2) ==")
	fmt.Fprintf(w, "interfaces observed (alias-collapsed): %d; links: %d\n", s.Interfaces, s.Links)
	fmt.Fprintf(w, "  seen by both primitives:   %d\n", s.Both)
	fmt.Fprintf(w, "  traceroute only:           %d (non-stamping or beyond nine RR slots)\n", s.TracerouteOnly)
	fmt.Fprintf(w, "  record route only:         %d (TTL-invisible or reverse-path hops)\n", s.RROnly)
	fmt.Fprintf(w, "  on reverse paths:          %d (invisible to all forward probing)\n", s.RRReverse)
}
