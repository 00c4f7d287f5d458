package topology

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// generateASLevel builds the AS roster and relationship graph for cfg.
// Index ranges are contiguous per role in roster order: tier-1, transit,
// access, enterprise, content, unknown stubs, clouds.
func generateASLevel(cfg Config, rng *rand.Rand) ([]*AS, *Graph) {
	// The roster is one block, and (below) its names one string and its
	// adjacency lists one array: a built topology holds a fixed number of
	// heap objects, not a few per AS.
	total := cfg.NumTier1 + cfg.NumTransit + cfg.NumAccess + cfg.NumEnterprise + cfg.NumContent + cfg.NumUnknown + len(cfg.CloudNames)
	block := make([]AS, total)
	var ases []*AS
	add := func(role Role, name string, routers, prefixes int) *AS {
		a := &block[len(ases)]
		*a = AS{
			Index:       len(ases),
			ASN:         1000 + len(ases),
			Role:        role,
			Name:        name,
			NumRouters:  routers,
			NumPrefixes: prefixes,
		}
		ases = append(ases, a)
		return a
	}

	// jitter returns n scaled by a uniform factor in [0.5, 1.5), min 1.
	jitter := func(n int) int {
		j := int(float64(n) * (0.5 + rng.Float64()))
		if j < 1 {
			j = 1
		}
		if j > maxDestSlots {
			j = maxDestSlots
		}
		return j
	}

	var tier1s, transits, access, enterprise, content, unknown, clouds []int
	for _, r := range []struct {
		role                 Role
		name                 string // format of the i'th AS's name
		n, routers, prefixes int
		index                *[]int
	}{
		{RoleTier1, "t1-%d", cfg.NumTier1, cfg.RoutersPerTier1, cfg.PrefixesPerTransit, &tier1s},
		{RoleTransit, "transit-%d", cfg.NumTransit, cfg.RoutersPerTransit, cfg.PrefixesPerTransit, &transits},
		{RoleAccess, "access-%d", cfg.NumAccess, cfg.RoutersPerAccess, cfg.PrefixesPerAccess, &access},
		{RoleEnterprise, "ent-%d", cfg.NumEnterprise, cfg.RoutersPerStub, cfg.PrefixesPerEnterprise, &enterprise},
		{RoleContent, "content-%d", cfg.NumContent, cfg.RoutersPerStub, cfg.PrefixesPerContent, &content},
		{RoleUnknownStub, "unk-%d", cfg.NumUnknown, cfg.RoutersPerStub, cfg.PrefixesPerUnknown, &unknown},
	} {
		for i := 0; i < r.n; i++ {
			*r.index = append(*r.index, add(r.role, fmt.Sprintf(r.name, i), r.routers, jitter(r.prefixes)).Index)
		}
	}
	for _, name := range cfg.CloudNames {
		clouds = append(clouds, add(RoleCloud, name, cfg.RoutersPerCloud, 2).Index)
	}

	g := NewGraph(len(ases))
	links := 0
	link := func(a, b int, rel Rel) {
		if a != b && !g.HasLink(a, b) {
			g.AddLink(a, b, rel)
			links++
		}
	}
	pick := func(pool []int) int { return pool[rng.IntN(len(pool))] }

	// Tier-1 clique.
	for i, a := range tier1s {
		for _, b := range tier1s[i+1:] {
			link(a, b, RelPeer)
		}
	}
	// Transit: customer of 1-2 tier-1s; IXP peering among transits.
	for _, t := range transits {
		link(pick(tier1s), t, RelCustomer)
		if rng.Float64() < 0.4 {
			link(pick(tier1s), t, RelCustomer)
		}
	}
	for i, a := range transits {
		for _, b := range transits[i+1:] {
			if rng.Float64() < cfg.TransitPeerProb {
				link(a, b, RelPeer)
			}
		}
	}
	// Access: customer of 1-2 transits (occasionally a tier-1 directly);
	// sparse access—access peering.
	for _, a := range access {
		if rng.Float64() < 0.1 {
			link(pick(tier1s), a, RelCustomer)
		} else {
			link(pick(transits), a, RelCustomer)
		}
		if rng.Float64() < 0.4 {
			link(pick(transits), a, RelCustomer)
		}
	}
	for i, a := range access {
		for _, b := range access[i+1:] {
			if rng.Float64() < cfg.AccessPeerProb {
				link(a, b, RelPeer)
			}
		}
	}
	// Stubs (enterprise + unknown): homed to a transit or an access AS.
	for _, pool := range [][]int{enterprise, unknown} {
		for _, e := range pool {
			if rng.Float64() < cfg.EnterpriseViaTransitP {
				link(pick(transits), e, RelCustomer)
			} else {
				link(pick(access), e, RelCustomer)
			}
		}
	}
	// Content: transit customers plus flattening peering.
	for _, c := range content {
		link(pick(transits), c, RelCustomer)
		if rng.Float64() < 0.5 {
			link(pick(transits), c, RelCustomer)
		}
		for _, a := range access {
			if rng.Float64() < cfg.ContentAccessPeerProb {
				link(c, a, RelPeer)
			}
		}
		for _, t := range transits {
			if rng.Float64() < cfg.ContentTransitPeerProb {
				link(c, t, RelPeer)
			}
		}
	}
	// Clouds: dual-homed to tier-1s, peering almost everywhere in 2016.
	for _, c := range clouds {
		link(tier1s[0], c, RelCustomer)
		link(tier1s[1%len(tier1s)], c, RelCustomer)
		for _, pools := range [][]int{access, transits, content} {
			for _, b := range pools {
				if rng.Float64() < cfg.CloudPeerProb {
					link(c, b, RelPeer)
				}
			}
		}
	}

	var names strings.Builder
	for _, a := range ases {
		names.WriteString(a.Name)
	}
	for all, i := names.String(), 0; i < len(ases); i++ {
		ases[i].Name, all = all[:len(ases[i].Name)], all[len(ases[i].Name):]
	}
	flat := make([]Neighbor, 0, 2*links)
	for i, l := range g.adj {
		flat = append(flat, l...)
		g.adj[i] = flat[len(flat)-len(l) : len(flat) : len(flat)] // a later AddLink reallocates
	}
	return ases, g
}

// assignPolicies stamps AS-wide behaviour flags onto the roster.
func assignPolicies(cfg Config, ases []*AS, rng *rand.Rand) {
	filterRate := func(a *AS) float64 {
		switch a.Role {
		case RoleAccess:
			return cfg.FilterRateAccess
		case RoleEnterprise:
			return cfg.FilterRateEnterprise
		case RoleContent:
			return cfg.FilterRateContent
		case RoleUnknownStub:
			return cfg.FilterRateUnknown
		case RoleTransit:
			return cfg.FilterRateTransit
		default:
			return 0 // tier-1s, clouds, and VP hosts never filter here
		}
	}
	var transitIdx []int
	for _, a := range ases {
		if rng.Float64() < filterRate(a) {
			a.FilterOptions = true
		}
		if a.Role == RoleTransit {
			transitIdx = append(transitIdx, a.Index)
		}
		// Partial no-stamp only makes sense where paths actually cross:
		// transit and access networks (stub stamping is unobservable).
		if a.Role == RoleTransit || a.Role == RoleAccess {
			if rng.Float64() < 2*cfg.PartialNoStampRate {
				a.PartialNoStamp = true
			}
		}
	}
	// A handful of transit ASes globally refuse to stamp (§3.5).
	for i := 0; i < cfg.NoStampASCount && len(transitIdx) > 0; i++ {
		k := rng.IntN(len(transitIdx))
		ases[transitIdx[k]].NoStamp = true
		transitIdx = append(transitIdx[:k], transitIdx[k+1:]...)
	}
}
