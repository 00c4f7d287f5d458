package netsim

import (
	"net/netip"
	"slices"
)

// FIB is a longest-prefix-match forwarding table mapping destination
// prefixes to egress interfaces: one pointer-free slice, scanned. Tables
// hold connected /32 routes and a handful of installed prefixes behind
// the router's memo; what matters is that all of a plane's fit one arena.
type FIB struct {
	routes []fibRoute
}

type fibRoute struct {
	key  uint32 // masked prefix address, packed as key4
	via  IfaceID
	bits uint8
}

// NewFIB returns an empty forwarding table.
func NewFIB() *FIB { return &FIB{} }

func mask4(bits uint8) uint32 { return ^uint32(0) << (32 - bits) }

// Add installs a route. The prefix is masked to its canonical form; a
// later Add for the same prefix overwrites the earlier one. Anything but
// an IPv4 prefix is ignored: nothing else is ever looked up.
func (f *FIB) Add(p netip.Prefix, via IfaceID) {
	if k, ok := key4(p.Addr()); ok && p.Bits() >= 0 {
		f.add(k, uint8(p.Bits()), via)
	}
}

func (f *FIB) add(key uint32, bits uint8, via IfaceID) {
	key &= mask4(bits)
	for i, r := range f.routes {
		if r.key == key && r.bits == bits {
			// The table may sit in an arena other networks read (plane.clone).
			f.routes = slices.Clone(f.routes)
			f.routes[i].via = via
			return
		}
	}
	f.routes = append(f.routes, fibRoute{key: key, via: via, bits: bits})
}

// Lookup returns the egress interface for dst under longest-prefix
// match, or NoIface if no route covers it.
func (f *FIB) Lookup(dst netip.Addr) IfaceID {
	if k, ok := key4(dst); ok {
		return f.lookup4(k)
	}
	return NoIface
}

func (f *FIB) lookup4(dst uint32) IfaceID {
	via, best := NoIface, -1
	for _, r := range f.routes {
		if int(r.bits) > best && dst&mask4(r.bits) == r.key {
			via, best = r.via, int(r.bits)
		}
	}
	return via
}

// Len returns the number of installed routes.
func (f *FIB) Len() int { return len(f.routes) }
