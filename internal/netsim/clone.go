package netsim

// Freeze lays out the network's plane and marks it as one that clones
// may share. It is idempotent and must be called (directly or via the
// first Clone) before any concurrent cloning: after it, Clone only reads
// the source. A frozen network keeps working — a later mutator on it, or
// on a clone, first takes that network a private copy (Network.mutable).
func (n *Network) Freeze() {
	if !n.shared {
		n.p.layout()
		n.shared = true
	}
}

// Clone returns a new Network over this network's plane with a pristine
// overlay: clock at zero, empty queue, counters, policers and memos,
// the loss RNG restarted, no sniffers, tracers or handles. It behaves
// like a fresh build however much traffic the source has carried, and
// costs a few allocations sized by router and host count. The
// first call freezes the source; then concurrent Clone calls are safe.
func (n *Network) Clone() *Network {
	if len(n.foreign) > 0 {
		panic("netsim: Clone: network holds a foreign node: " + n.foreign[0].Name())
	}
	n.Freeze()
	c := newNetwork(n.p)
	c.shared = true
	c.rs = make([]routerState, len(n.p.routers))
	c.snifSlot = make([]int32, len(n.p.hosts))
	// Replicas start in the source's epoch: one churn weather for all shards.
	c.faultEpoch = n.faultEpoch
	return c
}

// Counterpart maps a node of a network over the same plane (the snapshot
// source, a sibling replica) onto this network's handle for it.
func (n *Network) Counterpart(orig Node) Node {
	if orig == nil {
		return nil
	}
	return n.node(n.nodeID(orig))
}
