package topology

// Snapshot is a frozen, built topology that stamps out replicas without
// regenerating anything. Everything Build computed — AS graph, policy
// routes, the oracle's tables, destination records, the network's plane —
// is shared read-only by every replica; each Clone gets a fresh overlay
// (netsim.Network.Clone) and its own router and vantage-point handles.
type Snapshot struct {
	src *Topology
}

// SnapshotOf freezes a built topology for replication. The source keeps
// working normally afterwards; once this returns, concurrent Clone calls
// are safe.
func SnapshotOf(t *Topology) *Snapshot {
	t.Net.Freeze()
	return &Snapshot{src: t}
}

// Clone returns a replica topology. A replica behaves exactly like an
// independent Build of the same Config — same routes, same behaviour
// draws, same fault plan — with its clock at zero, and costs a fixed
// number of allocations whatever the topology's size.
func (s *Snapshot) Clone() *Topology {
	c := *s.src
	c.Net = s.src.Net.Clone()
	c.bindRouters()
	all := make([]VP, len(c.VPs)+len(c.CloudVPs))
	ptrs := make([]*VP, len(all))
	for i, v := range append(c.VPs[:len(c.VPs):len(c.VPs)], c.CloudVPs...) {
		all[i] = *v
		all[i].Host = c.Net.Host(c.vps[i].node)
		ptrs[i] = &all[i]
	}
	c.VPs, c.CloudVPs = ptrs[:len(c.VPs):len(c.VPs)], ptrs[len(c.VPs):]
	return &c
}
