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
