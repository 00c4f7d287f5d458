package netsim

import "math/bits"

// routeMemo is a router's memo of resolved routes: an open-addressed
// table from packed IPv4 destination (key4) to egress interface,
// negative results included. It stands in for a map because the lookup
// runs once per forwarded packet — by then the largest single cost of a
// hop — and because it holds no pointers, so the GC never scans it.
//
// The zero value is an empty memo.
type routeMemo struct {
	slots []routeSlot // length zero or a power of two, at most half full
	n     int
	shift uint8 // 32 - log2(len(slots))
}

// routeSlot is one table cell. via is 0 for an empty cell and an IfaceID
// plus memoBase otherwise, which makes a destination known to have no
// route (NoIface) a 1.
type routeSlot struct {
	dst uint32
	via int32
}

const (
	memoBase     = 2
	memoMinSlots = 8
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

// reset empties the memo in place, keeping the table: a router that
// overflowed routeCacheMax is about to see as many destinations again.
func (m *routeMemo) reset() {
	clear(m.slots)
	m.n = 0
}
