package netsim

// FrozenTables returns every table of n's plane by name, the routing
// oracle — a function, which nothing can compare — aside: what external
// tests compare two builds by.
func FrozenTables(n *Network) map[string]any {
	p := n.p
	return map[string]any{
		"nodes": p.nodes, "names": p.names, "nameEnd": p.nameEnd,
		"routers": p.routers, "hosts": p.hosts, "haddrs": p.haddrs,
		"ifaces": p.ifaces, "laid": p.laid,
		"linkFaults": p.linkFaults, "routerFaults": p.routerFaults,
	}
}

// RouteVia resolves dst at router ri as forwarding does, through the
// router's memo.
func RouteVia(n *Network, ri int, dst uint32) IfaceID { return n.lookupRoute4(int32(ri), dst) }

// RouteViaUncached resolves dst at router ri without the memo.
func RouteViaUncached(n *Network, ri int, dst uint32) IfaceID {
	via, _ := n.lookupRouteSlow(int32(ri), dst)
	return via
}

// MemoEntries returns how many block entries router ri's memo holds and
// the destinations of its address entries.
func MemoEntries(n *Network, ri int) (blocks int, addrs []uint32) {
	for _, s := range n.rs[ri].memo.slots {
		if s.via < 0 {
			blocks++
		} else if s.via > 0 {
			addrs = append(addrs, s.key)
		}
	}
	return blocks, addrs
}
