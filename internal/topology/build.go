package topology

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"recordroute/internal/netsim"
)

// builds counts completed topology Builds process-wide. The campaign
// service's frozen-plane cache asserts its hit path against this: two
// concurrent identical-key jobs must move it by exactly one.
var builds atomic.Uint64

// Builds returns how many topology Builds have completed in this
// process.
func Builds() uint64 { return builds.Load() }

// Build generates the AS graph, computes policy routes, and expands
// everything into a packet-level netsim network with vantage points,
// destinations, and behaviour assignments. The network comes back frozen
// (netsim.Network.Freeze): laid out, and safe to clone.
func Build(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))

	ases, graph := generateASLevel(cfg, rng)
	assignPolicies(cfg, ases, rng)
	// AS routing reads only the graph, and wiring never reads routes:
	// compute them while the routers are wired.
	routes := make(chan *Routes, 1)
	go func() { routes <- ComputeRoutes(graph) }()

	t := &Topology{
		Cfg:   cfg,
		Net:   netsim.New(),
		Graph: graph,
		ASes:  ases,
	}
	t.oracle = &oracle{numASes: len(ases)}

	plans := make([]asPlan, len(ases))
	for i := range plans {
		plans[i] = newASPlan(i)
	}
	t.VPs, t.CloudVPs = planVPs(cfg, ases)
	t.reserve()
	t.buildRouters(rng)
	t.buildIntraLinks(plans, rng)
	t.buildInterLinks(plans, rng)
	t.buildDests(plans, rng)
	t.buildVPs(t.VPs, plans, rng)
	t.buildVPs(t.CloudVPs, plans, rng)
	t.indexInfra(plans)
	t.Routes = <-routes
	t.oracle.routes = t.Routes
	t.Net.SetRouteFunc(t.route)
	t.bindRouters()
	t.installFaults()
	t.Net.Freeze()
	builds.Add(1)
	return t, nil
}

// appendNodeName appends the name of AS as's j'th router ("-r") or
// destination host ("-d"): fmt.Sprintf("as%d%s%d") at a fifth of the
// cost, 10⁵ times a build, into a buffer Build reuses.
func appendNodeName(b []byte, as int, kind string, j int) []byte {
	b = strconv.AppendInt(append(b, "as"...), int64(as), 10)
	return strconv.AppendInt(append(b, kind...), int64(j), 10)
}

// gatewayName names a rate-limited VP's dedicated gateway router.
func gatewayName(v *VP) string { return fmt.Sprintf("as%d-vpgw-%s", v.ASIdx, v.Name) }

// reserve presizes the network for what the roster builds: each AS's
// routers and a host per prefix, each VP's host and policed gateway; a
// tree link per router but an AS's first (gateways included), a link
// per AS adjacency and an access link per host. An AS's names are
// counted at the length of the longest.
func (t *Topology) reserve() {
	routers, hosts, names, adjs := 0, 0, 0, 0
	var name [32]byte // room for any node name
	for i, a := range t.ASes {
		routers, hosts, adjs = routers+a.NumRouters, hosts+a.NumPrefixes, adjs+len(t.Graph.Neighbors(i))
		names += a.NumRouters*len(appendNodeName(name[:0], i, "-r", a.NumRouters)) + a.NumPrefixes*len(appendNodeName(name[:0], i, "-d", a.NumPrefixes))
	}
	for _, v := range slices.Concat(t.VPs, t.CloudVPs) {
		hosts, names = hosts+1, names+len(v.Name)
		if v.SourceRateLimited {
			routers, names = routers+1, names+len(gatewayName(v))
		}
	}
	t.Net.Reserve(routers+hosts, hosts, routers-len(t.ASes)+adjs/2+hosts, names)
}

// bindRouters fills Routers with this topology's network's handles.
func (t *Topology) bindRouters() {
	all := t.Net.Routers()
	t.Routers = make([][]*netsim.Router, t.numASes)
	for a := range t.Routers {
		t.Routers[a] = all[t.rtrBase[a]:t.rtrBase[a+1]:t.rtrBase[a+1]]
	}
}

// installFaults compiles Cfg.Faults into per-interface and per-router
// fault state. Registration follows build order — routers by (AS,
// router) index with their interfaces in attachment order, then
// destination prefixes in hitlist order — so every replica built from
// the same Config draws the same afflicted subsets and window phases.
func (t *Topology) installFaults() {
	if t.Cfg.Faults == nil {
		return
	}
	plan := netsim.NewFaultPlan(*t.Cfg.Faults)
	for _, r := range t.Net.Routers() {
		plan.AddRouter(r)
	}
	for k, d := range t.Dests {
		plan.AddWithdrawal(t.Routers[d.ASIdx][t.dest[k].attach], d.Prefix)
	}
	t.Faults = plan.Install()
}

// MustBuild is Build for tests and examples with known-good configs.
func MustBuild(cfg Config) *Topology {
	t, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// routerBehavior derives a router's behaviour from its AS policy flags
// and the per-router rates.
func (t *Topology) routerBehavior(a *AS, rng *rand.Rand) netsim.RouterBehavior {
	b := netsim.RouterBehavior{}
	if a.FilterOptions {
		b.DropOptions = true
	}
	if a.NoStamp {
		b.NoStampRR = true
	} else if a.PartialNoStamp && rng.Float64() < 0.5 {
		b.NoStampRR = true
	}
	if rng.Float64() < t.Cfg.RouterAnonymousRate {
		b.NoTTLDecrement = true
	}
	// Options policers live at stub-AS edges (destination-proximate).
	isStub := a.Role == RoleEnterprise || a.Role == RoleUnknownStub || a.Role == RoleContent
	if isStub && rng.Float64() < t.Cfg.EdgeRateLimitRate {
		b.OptionsRateLimit = t.Cfg.EdgeRateLimitPPS
		b.OptionsRateBurst = t.Cfg.EdgeRateLimitPPS / 2
	}
	return b
}

func (t *Topology) buildRouters(rng *rand.Rand) {
	t.rtrBase = make([]int32, len(t.ASes)+1)
	add := func(as int, name string, b netsim.RouterBehavior) {
		t.rtr = append(t.rtr, routerRow{as: int32(as), parent: -1})
		if id := t.Net.AddRouterNode(name, b); int(id) != len(t.rtr)-1 {
			panic("topology: routers must be the network's first nodes")
		}
	}
	var name []byte
	for i, a := range t.ASes {
		for j := 0; j < a.NumRouters; j++ {
			name = appendNodeName(name[:0], i, "-r", j)
			add(i, string(name), t.routerBehavior(a, rng))
		}
		// Dedicated first-hop gateways, each carrying one rate-limited VP;
		// buildVPs wires them in.
		for _, v := range t.VPs {
			if v.SourceRateLimited && v.ASIdx == i {
				add(i, gatewayName(v), netsim.RouterBehavior{
					OptionsRateLimit: t.Cfg.SourceRateLimitPPS,
					OptionsRateBurst: t.Cfg.SourceRateLimitPPS / 2,
				})
			}
		}
		t.rtrBase[i+1] = int32(len(t.rtr))
	}
}

// chainBias returns how strongly an AS role's router tree grows as a
// chain (1 = pure chain, 0 = star): access and enterprise networks have
// deep aggregation hierarchies; the core is flat and bushy.
func chainBias(r Role) float64 {
	switch r {
	case RoleAccess:
		return 0.85
	case RoleEnterprise, RoleUnknownStub:
		return 0.7
	case RoleContent:
		return 0.5
	default: // tier-1, transit, cloud backbones
		return 0.4
	}
}

// buildIntraLinks wires each AS's routers into a random tree rooted at
// router 0, chain-biased per role, so destinations sit at varying
// depths — the spread Figure 1's hop CDF measures.
func (t *Topology) buildIntraLinks(plans []asPlan, rng *rand.Rand) {
	for i, a := range t.ASes {
		bias := chainBias(a.Role) + t.Cfg.ChainBoost
		if bias > 0.95 {
			bias = 0.95
		}
		for j := 1; j < a.NumRouters; j++ {
			p := j - 1
			if rng.Float64() >= bias {
				p = rng.IntN(j)
			}
			t.attachChild(plans, rng, i, j, p)
		}
	}
}

// attachChild links router j of AS i under parent p. It also serves the
// dedicated VP gateways, wired in after the initial build.
func (t *Topology) attachChild(plans []asPlan, rng *rand.Rand, i, j, p int) {
	parentAddr, childAddr := plans[i].NextInfra(p), plans[i].NextInfra(j)
	delay := time.Duration(1+rng.IntN(3)) * time.Millisecond
	r := &t.rtr[t.router(i, j)]
	r.parent = int32(p)
	r.down, r.up = t.Net.Link(t.node(i, p), t.node(i, j), parentAddr, childAddr, delay)
}

// borderCandidates lists an AS's routers eligible to host inter-AS
// links: backbone routers near the root — core networks spread borders
// a level deeper (lengthening transit crossings), edge networks keep
// them shallow so their aggregation tails stay destination-only.
func (t *Topology) borderCandidates(i int) []int {
	maxDepth := 1
	if r := t.ASes[i].Role; r == RoleTier1 || r == RoleTransit {
		maxDepth = 2
	}
	return t.routersWithin(i, maxDepth)
}

// routersWithin lists AS i's routers no deeper than maxDepth in its tree.
func (t *Topology) routersWithin(i, maxDepth int) []int {
	var out []int
	for j := 0; j < t.ASes[i].NumRouters; j++ {
		if t.depthOf(i, j) <= maxDepth {
			out = append(out, j)
		}
	}
	return out
}

// deepBorderCandidates lists routers eligible for cloud private
// interconnects: anywhere in the upper two-thirds of the AS tree.
func (t *Topology) deepBorderCandidates(i int) []int {
	maxDepth := 0
	for j := 0; j < t.ASes[i].NumRouters; j++ {
		if d := t.depthOf(i, j); d > maxDepth {
			maxDepth = d
		}
	}
	return t.routersWithin(i, max(1, 2*maxDepth/3))
}

// buildInterLinks realizes each AS adjacency as one router-level link
// between randomly chosen border routers.
func (t *Topology) buildInterLinks(plans []asPlan, rng *rand.Rand) {
	borders := make([][]int, len(t.ASes))
	deepBorders := make([][]int, len(t.ASes))
	for i := range t.ASes {
		borders[i] = t.borderCandidates(i)
		deepBorders[i] = t.deepBorderCandidates(i)
	}
	// pickBorder chooses AS i's router for its link to AS j. Cloud
	// private interconnects land deep inside access networks (metro
	// POPs close to the aggregation), shortening cloud—user paths —
	// the §3.6 flattening effect.
	pickBorder := func(i, j int) int {
		cands := borders[i]
		if t.ASes[i].Role == RoleAccess && t.ASes[j].Role == RoleCloud {
			cands = deepBorders[i]
		}
		return cands[rng.IntN(len(cands))]
	}
	for a := 0; a < t.Graph.N(); a++ {
		for _, nb := range t.Graph.Neighbors(a) {
			b := nb.To
			if b < a {
				continue // realize each adjacency once
			}
			ra := pickBorder(a, b)
			rb := pickBorder(b, a)
			addrA, addrB := plans[a].NextInfra(ra), plans[b].NextInfra(rb)
			delay := time.Duration(3+rng.IntN(13)) * time.Millisecond
			ia, ib := t.Net.Link(t.node(a, ra), t.node(b, rb), addrA, addrB, delay)
			t.border = append(t.border, borderRow{borderKey(a, b), int32(ra), ia}, borderRow{borderKey(b, a), int32(rb), ib})
		}
	}
	sort.Slice(t.border, func(x, y int) bool { return t.border[x].key < t.border[y].key })
}

// buildDests creates one destination host per advertised prefix, with
// behaviour drawn from the calibrated rates.
func (t *Topology) buildDests(plans []asPlan, rng *rand.Rand) {
	cfg := t.Cfg
	t.destBase = make([]int32, len(t.ASes)+1)
	for i, a := range t.ASes {
		t.destBase[i+1] = t.destBase[i] + int32(a.NumPrefixes)
	}
	block := make([]Dest, t.destBase[len(t.ASes)])
	t.Dests = make([]*Dest, len(block))
	t.dest = make([]hostRow, len(block))
	var name []byte
	for i, a := range t.ASes {
		typ := a.Type()
		for j := 0; j < a.NumPrefixes; j++ {
			hb := netsim.HostBehavior{
				PingResponsive: rng.Float64() < cfg.PingResponsiveRate[typ],
				RRResponsive:   rng.Float64() >= cfg.HostRRDropRate[typ],
				CopyRROnReply:  true,
				HonorRR:        true,
				UDPResponsive:  rng.Float64() < cfg.HostUDPResponsiveRate,
			}
			k := int(t.destBase[i]) + j
			octet := hostOctets[rng.IntN(len(hostOctets))]
			d := &block[k]
			*d = Dest{Addr: plans[i].DestAddr(j, octet), Prefix: plans[i].DestPrefix(j), ASIdx: i}
			switch {
			case rng.Float64() < cfg.HostNoHonorRRRate:
				hb.HonorRR = false
				d.GTNoHonorRR = true
			case rng.Float64() < cfg.HostAliasStampRate:
				d.GTAlias = plans[i].AliasAddr(j)
				hb.StampAddr = d.GTAlias
			}
			d.GTPingResponsive = hb.PingResponsive
			d.GTRRDrop = !hb.RRResponsive
			d.GTUDPResponsive = hb.UDPResponsive
			t.Dests[k] = d

			name = appendNodeName(name[:0], i, "-d", j)
			host := t.Net.AddHostNode(string(name), hb, d.Addr, d.GTAlias)
			attach := rng.IntN(a.NumRouters)
			gwAddr := plans[i].NextInfra(attach)
			delay := time.Duration(1+rng.IntN(5)) * time.Millisecond
			gw, _ := t.Net.Link(t.node(i, attach), host, gwAddr, d.Addr, delay)
			t.dest[k] = hostRow{gw: gw, attach: uint16(attach), octet: octet, alias: d.GTAlias.IsValid()}
		}
	}
}

// planVPs places M-Lab VPs in transit ASes (hub-attached, colo-like),
// PlanetLab VPs in enterprise ASes, and one measurement host at each
// cloud's border; buildVPs gives them addresses and hosts. Placement
// draws nothing, so buildRouters can make rate-limited VPs' gateways first.
func planVPs(cfg Config, ases []*AS) (vps, clouds []*VP) {
	var transits, ents []int
	for _, a := range ases {
		switch a.Role {
		case RoleTransit:
			transits = append(transits, a.Index)
		case RoleEnterprise:
			ents = append(ents, a.Index)
		case RoleCloud:
			clouds = append(clouds, &VP{Name: a.Name, Kind: Cloud, ASIdx: a.Index})
		}
	}
	for i := 0; i < cfg.NumMLab; i++ {
		vps = append(vps, &VP{Name: fmt.Sprintf("mlab-%d", i), Kind: MLab,
			ASIdx: transits[i%len(transits)], SourceRateLimited: i < cfg.MLabRateLimited})
	}
	for i := 0; i < cfg.NumPlanetLab; i++ {
		vps = append(vps, &VP{Name: fmt.Sprintf("pl-%d", i), Kind: PlanetLab,
			ASIdx: ents[i%len(ents)], SourceRateLimited: i < cfg.MLabRateLimited/2})
	}
	return vps, clouds
}

// buildVPs creates the planned vantage points' hosts at their AS's hub;
// a rate-limited VP sits behind its own policed gateway router instead.
func (t *Topology) buildVPs(vps []*VP, plans []asPlan, rng *rand.Rand) {
	for _, v := range vps {
		p := &plans[v.ASIdx]
		v.Addr = p.NextVP()
		host := t.Net.AddHostNode(v.Name, netsim.DefaultHostBehavior(), v.Addr)
		attach := 0
		if v.SourceRateLimited {
			attach = t.ASes[v.ASIdx].NumRouters + p.gateways // made by buildRouters
			p.gateways++
			t.attachChild(plans, rng, v.ASIdx, attach, 0)
		}
		gwAddr := p.NextInfra(attach)
		gw, _ := t.Net.Link(t.node(v.ASIdx, attach), host, gwAddr, v.Addr, time.Millisecond)
		t.vps = append(t.vps, vpRow{addrU32(v.Addr), host, hostRow{gw: gw, attach: uint16(attach)}})
		v.Host = t.Net.Host(host)
	}
}

// indexInfra flattens the address plans' slot owners into the oracle.
func (t *Topology) indexInfra(plans []asPlan) {
	t.infraBase = make([]int32, len(plans)+1)
	for i := range plans {
		t.infraBase[i+1] = t.infraBase[i] + int32(len(plans[i].owner))
	}
	t.infraRtr = make([]int32, 0, t.infraBase[len(plans)])
	for i := range plans {
		t.infraRtr = append(t.infraRtr, plans[i].owner...)
	}
}
