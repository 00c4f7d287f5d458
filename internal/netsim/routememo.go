package netsim

import "math/bits"

// routeMemo is a router's memo of resolved routes: an open-addressed
// table from packed IPv4 destination (key4) to egress interface,
// negative results included. It stands in for a map[uint32]*Iface
// because the lookup runs once per forwarded packet — by then the
// largest single cost of a hop — and because the values are interface
// ids rather than pointers: the table holds no pointers, so the GC never
// scans it, and a frozen memo shared with replica networks needs no
// pointer translation (ids index each network's own registry).
//
// The zero value is an empty memo. A memo is copied by value to share it
// read-only (the frozen routeBase); only its owner may put or reset.
type routeMemo struct {
	slots []routeSlot // length zero or a power of two, at most half full
	n     int
	shift uint8 // 32 - log2(len(slots))
}

// routeSlot is one table cell. via is 0 for an empty cell, memoNoRoute
// for a destination known to have no route, and interface id +
// memoIfaceBase otherwise.
type routeSlot struct {
	dst uint32
	via int32
}

const (
	memoNoRoute   = 1
	memoIfaceBase = 2
	memoMinSlots  = 8
)

// home returns dst's preferred cell (Fibonacci hashing: campaign
// destinations are dense and sequential, which the top bits of a
// multiplicative hash scatter and a mask alone would not).
func (m *routeMemo) home(dst uint32) uint32 {
	return (dst * 0x9e3779b1) >> m.shift
}

// get returns the memoized value for dst, 0 when there is none.
func (m *routeMemo) get(dst uint32) int32 {
	if len(m.slots) == 0 {
		return 0
	}
	mask := uint32(len(m.slots) - 1)
	for i := m.home(dst); ; i = (i + 1) & mask {
		s := m.slots[i]
		if s.via == 0 || s.dst == dst {
			return s.via
		}
	}
}

// put memoizes via (nonzero) for dst, which must not be present.
func (m *routeMemo) put(dst uint32, via int32) {
	if m.n*2 >= len(m.slots) {
		old := m.slots
		m.slots = make([]routeSlot, max(memoMinSlots, 2*len(old)))
		m.shift = uint8(32 - bits.Len(uint(len(m.slots)-1)))
		for _, s := range old {
			if s.via != 0 {
				m.place(s)
			}
		}
	}
	m.place(routeSlot{dst: dst, via: via})
	m.n++
}

func (m *routeMemo) place(s routeSlot) {
	mask := uint32(len(m.slots) - 1)
	i := m.home(s.dst)
	for m.slots[i].via != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = s
}

// reset empties the memo, releasing its table.
func (m *routeMemo) reset() { *m = routeMemo{} }

// memoValue encodes via for a routeMemo of this network: memoNoRoute for
// nil, the registry id for one of the network's own interfaces, and 0 —
// not memoizable — for a hand-built interface that never joined the
// registry.
func (n *Network) memoValue(via *Iface) int32 {
	if via == nil {
		return memoNoRoute
	}
	if int(via.id) < len(n.ifaces) && n.ifaces[via.id] == via {
		return via.id + memoIfaceBase
	}
	return 0
}

// memoIface decodes a nonzero routeMemo value against this network's
// interface registry.
func (n *Network) memoIface(v int32) *Iface {
	if v == memoNoRoute {
		return nil
	}
	return n.ifaces[v-memoIfaceBase]
}
