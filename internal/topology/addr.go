package topology

import (
	"encoding/binary"
	"net/netip"
)

// Address plan: AS i owns the /16 supernet at addrBase + i<<16. Inside
// it, destination prefixes are /24s from the bottom (x.y.0.0/24,
// x.y.1.0/24, …), vantage-point hosts use the /24 at vpSlot, and
// infrastructure (link) addresses are allocated from the top downward.
// Mapping any address back to its owner is therefore arithmetic — the AS
// is a shift, the destination the third octet, the infrastructure slot
// 0xfffe less the low 16 bits — so the routing oracle (topology.go) is a
// few dense arrays.
const (
	addrBase     uint32 = 0x64000000 // 100.0.0.0
	maxASes             = 4096       // keeps supernets inside 100.0.0.0/4-ish space
	vpSlot              = 250        // third octet reserved for VP hosts
	maxDestSlots        = 240
)

// u32Addr converts a uint32 to a netip.Addr.
func u32Addr(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

// addrU32 converts an IPv4 netip.Addr to its uint32 value.
func addrU32(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// infraTop is the low 16 bits of an AS's first infrastructure address.
const infraTop = 0xfffe

// asPlan is the per-AS address allocator.
type asPlan struct {
	base  uint32 // supernet network address
	infra uint32 // next infrastructure address offset (counts down)
	// owner[s] is the router (its index in the AS) that was given
	// infrastructure slot s, the address at offset infraTop-s.
	owner         []int32
	vps, gateways int // VP hosts and policed VP gateways placed so far
}

func newASPlan(asIdx int) asPlan {
	return asPlan{base: addrBase + uint32(asIdx)<<16, infra: infraTop}
}

// DestPrefix returns the AS's j'th advertised /24.
func (p *asPlan) DestPrefix(j int) netip.Prefix {
	if j < 0 || j >= maxDestSlots {
		panic("topology: destination slot out of range")
	}
	return netip.PrefixFrom(u32Addr(p.base+uint32(j)<<8), 24)
}

// hostOctets are the last octets destination hosts may live at, the
// candidates Fan & Heidemann's history-based hitlist selection narrowed
// real prefixes to. 129 is reserved for aliases.
var hostOctets = []uint8{1, 2, 10, 33, 50, 100, 200, 254}

// DestAddr returns the destination host address in prefix j at the
// given last octet.
func (p *asPlan) DestAddr(j int, octet uint8) netip.Addr {
	return u32Addr(p.base + uint32(j)<<8 + uint32(octet))
}

// AliasAddr returns the alias address paired with destination j (the
// ".129" of the same /24 — a second interface of the same device).
func (p *asPlan) AliasAddr(j int) netip.Addr { return u32Addr(p.base + uint32(j)<<8 + 129) }

// NextVP allocates the AS's next vantage-point host address.
func (p *asPlan) NextVP() netip.Addr {
	if p.vps++; p.vps > 250 {
		panic("topology: VP slot out of range")
	}
	return u32Addr(p.base + vpSlot<<8 + uint32(p.vps))
}

// NextInfra allocates a fresh infrastructure (link) address, for an
// interface of the AS's given router, from the top of the supernet
// downward.
func (p *asPlan) NextInfra(router int) netip.Addr {
	a := u32Addr(p.base + p.infra)
	p.owner = append(p.owner, int32(router))
	p.infra--
	if p.infra <= uint32(vpSlot)<<8|0xff {
		panic("topology: infrastructure address space exhausted")
	}
	return a
}

// asOfAddr maps an address back to the owning AS index, or -1 when the
// address is outside the plan.
func asOfAddr(a netip.Addr, numASes int) int { return asOfKey(addrU32(a), numASes) }

// asOfKey is asOfAddr for a packed IPv4 address.
func asOfKey(v uint32, numASes int) int {
	if idx := int((v - addrBase) >> 16); v >= addrBase && idx < numASes {
		return idx
	}
	return -1
}
