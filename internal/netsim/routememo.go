package netsim

import "math/bits"

// routeMemo is a router's memo of resolved routes: an open-addressed
// table to egress interface, negative results included, keyed by a
// packed IPv4 destination (key4) or, for a wide answer, its /16 block.
// It stands in for a map because the lookup runs once per forwarded
// packet and because it holds no pointers, so the GC never scans it.
//
// The zero value is an empty memo.
type routeMemo struct {
	slots []routeSlot // length zero or a power of two, at most half full
	n     int
	shift uint8 // 32 - log2(len(slots))
}

// routeSlot is one table cell. via is 0 for an empty cell and an IfaceID
// plus memoBase otherwise, which makes a destination known to have no
// route (NoIface) a 1, times the entry's key space: byBlock negates it,
// so an address entry never answers for a block, nor the other way.
type routeSlot struct {
	key uint32
	via int32
}

const (
	memoBase     = 2
	memoMinSlots = 8

	byAddr, byBlock int32 = 1, -1 // key spaces
)

// home returns key's preferred cell (Fibonacci hashing: campaign
// destinations are dense and sequential, which the top bits of a
// multiplicative hash scatter and a mask alone would not).
func (m *routeMemo) home(key uint32) uint32 {
	return (key * 0x9e3779b1) >> m.shift
}

// get returns the value memoized for key in key space sp, 0 when there
// is none.
func (m *routeMemo) get(key uint32, sp int32) int32 {
	if len(m.slots) == 0 {
		return 0
	}
	mask := uint32(len(m.slots) - 1)
	for i := m.home(key); ; i = (i + 1) & mask {
		if s := m.slots[i]; s.via == 0 || s.key == key && s.via*sp > 0 {
			return s.via * sp
		}
	}
}

// put memoizes via (positive) for key in key space sp, where it must not
// be present.
func (m *routeMemo) put(key uint32, sp, via int32) {
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
	m.place(routeSlot{key: key, via: via * sp})
	m.n++
}

func (m *routeMemo) place(s routeSlot) {
	mask := uint32(len(m.slots) - 1)
	i := m.home(s.key)
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
