package netsim

// Snapshot/clone support: a built Network can be frozen into an
// immutable route plane and cheaply replicated. The plane — interface
// wiring, link delays, FIB contents, the routing oracle, host address
// sets, link-fault parameters — is identical across every seed-identical
// replica, so clones share it read-only behind copy-on-write flags. Only
// the mutable overlay is rebuilt per clone: engine (virtual clock +
// event queue), counters, token buckets, IP-ID counters, loss RNG,
// per-router withdrawal observations, caches, and observability hooks.
// Each of those restarts in its pristine post-build state, so a clone is
// behaviorally indistinguishable from a fresh topology.Build of the same
// Config — regardless of how much traffic the source has carried since.

// Freeze marks the network as an immutable route plane that clones may
// share. It is idempotent and must be called (directly or via the first
// Clone) before any concurrent cloning: after it returns, Clone only
// reads the source. Frozen networks keep working normally — the
// copy-on-write flags make later AddRoute/AddAlias/Connect calls copy
// the shared structure instead of mutating it.
func (n *Network) Freeze() {
	if n.frozen {
		return
	}
	for _, node := range n.nodes {
		switch v := node.(type) {
		case *Router:
			v.fibShared = true
			// The memoized routes become the shared frozen base — except
			// on routers with transient withdrawals or epoch churn, whose
			// lookups depend on the clock (or the fault epoch): a stale
			// memo must never leak into a replica starting at clock zero
			// or running under a different epoch.
			if f := v.faults; f == nil || (f.withdraw.duty == 0 && !f.churnPrefix.IsValid()) {
				if v.routeCache.n > 0 {
					v.routeBase, v.routeCache = v.routeCache, routeMemo{}
				}
			}
		case *Host:
			v.localShared = true
		}
	}
	// The name index is immutable plane state: clones share it instead
	// of building a node map apiece.
	n.nameIdx = make(map[string]int, len(n.nodes))
	for i, node := range n.nodes {
		n.nameIdx[node.Name()] = i
	}
	n.frozen = true
}

// Clone returns a new Network sharing this network's frozen route plane,
// with every mutable element reset to its pristine post-build state.
// The first call freezes the source; once frozen, concurrent Clone calls
// are safe (pure reads of the source).
func (n *Network) Clone() *Network {
	n.Freeze()
	c := &Network{
		engine:  NewEngine(),
		nodes:   make([]Node, 0, len(n.nodes)),
		nameIdx: n.nameIdx,
		ifaces:  make([]*Iface, len(n.ifaces)),
		lossRNG: lossSeed,
		// The fault epoch is overlay state, not plane state: replicas
		// start in the source's epoch so all shards of one campaign see
		// the same churn weather.
		faultEpoch: n.faultEpoch,
		counters:   newCounters(),
	}
	// Replica structs come from per-kind blocks (one allocation each, not
	// one per node/interface): clone cost is GC-bound, and tens of
	// thousands of small objects dominate it otherwise.
	var numRouters, numHosts, numRefs int
	for _, node := range n.nodes {
		switch v := node.(type) {
		case *Router:
			numRouters++
			numRefs += len(v.ifaces)
		case *Host:
			numHosts++
		default:
			panic("netsim: Clone: unknown node kind: " + node.Name())
		}
	}
	shells := make([]Iface, len(n.ifaces))
	for i, o := range n.ifaces {
		shells[i] = Iface{Addr: o.Addr, a4: o.a4, id: o.id, delay: o.delay, loss: o.loss, faults: o.faults, net: c}
		c.ifaces[i] = &shells[i]
	}
	for i, o := range n.ifaces {
		if o.peer != nil {
			c.ifaces[i].peer = c.ifaces[o.peer.id]
		}
	}
	routers := make([]Router, numRouters)
	hosts := make([]Host, numHosts)
	refs := make([]*Iface, numRefs)
	for _, node := range n.nodes {
		switch v := node.(type) {
		case *Router:
			r := &routers[0]
			routers = routers[1:]
			c.adoptRouter(v, r, refs[:len(v.ifaces):len(v.ifaces)])
			refs = refs[len(v.ifaces):]
		case *Host:
			h := &hosts[0]
			hosts = hosts[1:]
			c.adoptHost(v, h)
		}
	}
	for i, o := range n.ifaces {
		if o.Owner != nil {
			c.ifaces[i].Owner = c.nodes[nodeIndex(o.Owner)]
		}
	}
	return c
}

// adoptRouter appends a replica of a source-network router: shared
// frozen plane (FIB, oracle closure, local-address set, memoized route
// base), pristine overlay (policers, IP-ID, caches, withdrawal
// observations). r and ifaces are the caller's block-allocated shells.
func (c *Network) adoptRouter(o *Router, r *Router, ifaces []*Iface) {
	*r = Router{
		name:      o.name,
		net:       c,
		idx:       o.idx,
		behavior:  o.behavior,
		fib:       o.fib,
		fibShared: true,
		routeFn:   o.routeFn,
		local:     o.local[:len(o.local):len(o.local)], // see ownsAddr
		routeBase: o.routeBase,
		ipid:      seedIPID(o.name),
	}
	// Policer state is copy-on-write: no bucket is allocated here — the
	// replica materializes its own from the shared behavior config on
	// first token consumption (Router.optionsLimiter/icmpErrLimiter),
	// which is exact because a fresh bucket starts full and refills clamp
	// at burst. Clones of a dirty source therefore behave like fresh
	// builds, and unpoliced replicas never pay for bucket heap.
	if o.faults != nil {
		f := *o.faults
		f.wFlips = 0 // no withdrawal window observed yet at clock zero
		r.faults = &f
	}
	for i, ifc := range o.ifaces {
		ifaces[i] = c.ifaces[ifc.id]
	}
	r.ifaces = ifaces
	c.nodes = append(c.nodes, r)
}

// adoptHost appends a replica of a source-network host: shared address
// set, pristine IP-ID, no sniffer (probers install their own). h is the
// caller's block-allocated shell.
func (c *Network) adoptHost(o *Host, h *Host) {
	*h = Host{
		name:        o.name,
		net:         c,
		idx:         o.idx,
		behavior:    o.behavior,
		addrs:       o.addrs,
		localShared: true,
		ipid:        seedIPID(o.name),
	}
	if o.uplink != nil {
		h.uplink = c.ifaces[o.uplink.id]
	}
	c.nodes = append(c.nodes, h)
}

// nodeIndex returns a node's registration index within its network.
func nodeIndex(node Node) int {
	switch v := node.(type) {
	case *Router:
		return v.idx
	case *Host:
		return v.idx
	}
	return -1
}

// Counterpart maps a node of the snapshot source network onto this
// clone's replica of it — same registration index, same name and kind —
// or nil for a node this network does not hold. Topology snapshots use
// it to remap router/VP/destination references.
func (n *Network) Counterpart(orig Node) Node {
	if orig == nil {
		return nil
	}
	i := nodeIndex(orig)
	if i < 0 || i >= len(n.nodes) {
		return nil
	}
	return n.nodes[i]
}
