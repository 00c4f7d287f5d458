package dataset

import (
	"net/netip"
	"testing"

	"recordroute/internal/topology"
)

func build(t *testing.T) (*topology.Topology, *Dataset) {
	t.Helper()
	topo := topology.MustBuild(topology.DefaultConfig(topology.Epoch2016).Scale(0.15))
	return topo, FromTopology(topo)
}

func TestFromTopologyCoversEveryDest(t *testing.T) {
	topo, d := build(t)
	if len(d.Prefixes) != len(topo.Dests) || len(d.Hitlist) != len(topo.Dests) {
		t.Fatalf("prefixes=%d hitlist=%d dests=%d", len(d.Prefixes), len(d.Hitlist), len(topo.Dests))
	}
	for _, h := range d.Hitlist {
		if !h.Prefix.Contains(h.Addr) {
			t.Errorf("hitlist addr %v outside %v", h.Addr, h.Prefix)
		}
	}
	// Origin lookup agrees with topology ground truth.
	for _, dest := range topo.Dests[:20] {
		if got, want := d.OriginASN(dest.Addr), topo.ASes[dest.ASIdx].ASN; got != want {
			t.Errorf("OriginASN(%v) = %d, want %d", dest.Addr, got, want)
		}
	}
}

func TestDestInfosTypesMatchTopology(t *testing.T) {
	topo, d := build(t)
	infos := d.DestInfos()
	if len(infos) != len(topo.Dests) {
		t.Fatalf("infos = %d", len(infos))
	}
	byAddr := make(map[netip.Addr]string)
	for _, dest := range topo.Dests {
		byAddr[dest.Addr] = topo.ASes[dest.ASIdx].Type().String()
	}
	for _, info := range infos {
		if byAddr[info.Addr] != info.Type {
			t.Errorf("%v typed %q, want %q", info.Addr, info.Type, byAddr[info.Addr])
		}
	}
}
