package measure

import (
	"recordroute/internal/netsim"
	"recordroute/internal/obs"
	"recordroute/internal/topology"
)

// Campaign is the vantage-point roster of one engine: the VPs a replica
// probes from, each driving its own prober on that engine. Collect-all
// primitives live on the executor that holds rosters (ParallelCampaign);
// a roster is also what callers probe through directly, one prober at a
// time, followed by Eng.Run.
type Campaign struct {
	Eng *netsim.Engine
	Net *netsim.Network
	VPs []*VantagePoint

	topo   *topology.Topology
	byName map[string]*VantagePoint
}

// NewCampaign builds a roster over the given topology VPs (any mix of
// platform and cloud VPs). Prober identifiers are assigned sequentially
// (0x4000+i) so no two VPs cross-match.
func NewCampaign(topo *topology.Topology, vps []*topology.VP) *Campaign {
	c := newRoster(topo)
	for i, v := range vps {
		c.add(v, i)
	}
	return c
}

// newRoster returns an empty roster on topo's engine.
func newRoster(topo *topology.Topology) *Campaign {
	return &Campaign{Eng: topo.Net.Engine(), Net: topo.Net, topo: topo, byName: make(map[string]*VantagePoint)}
}

// add puts v on the roster with the prober ID of campaign index i.
func (c *Campaign) add(v *topology.VP, i int) {
	vp := NewVantagePoint(v.Name, v.Host, c.Eng, uint16(0x4000+i))
	c.VPs = append(c.VPs, vp)
	c.byName[v.Name] = vp
}

// VP returns the named vantage point, or nil.
func (c *Campaign) VP(name string) *VantagePoint {
	return c.byName[name]
}

// Observe attaches an observability configuration to the roster's
// engine and every VP prober. A nil or inactive observer is a no-op,
// leaving the hot paths with their bare nil checks. Attaching never
// perturbs the run: all hooks record synchronously and schedule nothing
// (see package obs).
func (c *Campaign) Observe(o *obs.Observer) {
	if !o.Active() {
		return
	}
	if o.PerNode {
		c.Net.EnableNodeCounters()
	}
	if o.Trace != nil {
		c.Net.SetTracer(o.Trace.NetworkTracer())
		for _, vp := range c.VPs {
			vp.Prober.SetTracer(o.Trace.ProberTracer(vp.Name))
		}
	}
}
