package study

import (
	"fmt"
	"io"
	"net/netip"

	"recordroute/internal/atlas"
	"recordroute/internal/topology"
)

// AtlasResult is the §2 complementarity experiment: merge every ping-RR
// result with traceroutes and count what each primitive uniquely
// uncovered.
type AtlasResult struct {
	Stats atlas.Stats
	// AnonymousRROnly counts ground-truth TTL-invisible routers that RR
	// observed (traceroute cannot see them); AnonymousLeaked counts any
	// that traceroute somehow reported — always zero in a correct
	// simulation.
	AnonymousRROnly, AnonymousLeaked int
	// TracerouteDests is how many destinations were traced.
	TracerouteDests int
}

// RunAtlas merges the responsiveness study's RR results with fresh
// traceroutes (up to perVPCap destinations per M-Lab VP) into a
// topology atlas.
func (s *Study) RunAtlas(r *Responsiveness, perVPCap int) *AtlasResult {
	if perVPCap <= 0 {
		perVPCap = 200
	}
	at := atlas.New(nil)
	for _, rs := range r.PerVP {
		for _, res := range rs {
			at.AddRR(res)
		}
	}

	perVP := make(map[string][]netip.Addr)
	traced := 0
	for _, name := range s.vpNamesOfKind(topology.MLab) {
		var mine []netip.Addr
		for _, d := range r.Dests {
			st := r.Stats[d]
			if st == nil {
				continue
			}
			if _, responded := st.SlotsByVP[name]; responded {
				mine = append(mine, d)
			}
			if len(mine) == perVPCap {
				break
			}
		}
		perVP[name] = mine
		traced += len(mine)
	}
	traces := s.campaign().TracerouteAll(perVP, s.Opts.ProbeOpts())
	for _, ts := range traces {
		for _, tr := range ts {
			at.AddTraceroute(tr)
		}
	}

	res := &AtlasResult{Stats: at.Stats(), TracerouteDests: traced}
	for _, info := range at.Interfaces() {
		router := s.Topo.RouterByAddr(info.Addr)
		if router == nil || !router.Behavior().NoTTLDecrement {
			continue
		}
		if info.Sources.Has(atlas.FromTraceroute) {
			res.AnonymousLeaked++
		} else {
			res.AnonymousRROnly++
		}
	}
	return res
}

// Render prints the atlas summary.
func (ar *AtlasResult) Render(w io.Writer) {
	ar.Stats.Render(w)
	fmt.Fprintf(w, "TTL-invisible routers uncovered by RR alone: %d (leaked to traceroute: %d)\n",
		ar.AnonymousRROnly, ar.AnonymousLeaked)
	fmt.Fprintf(w, "traceroute targets merged: %d\n", ar.TracerouteDests)
}
