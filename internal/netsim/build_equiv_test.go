package netsim_test

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"recordroute/internal/netsim"
	"recordroute/internal/topology"
)

// TestPipelinedBuildIsOnePlane builds the same configs on one processor
// and on four. AS routing runs beside the router wiring, on as many
// workers as there are processors, and neither may change what Build
// returns: the route matrix row by row, and every table of the frozen
// plane — nodes, names, hosts, interfaces, and each router's
// interfaces, local set and FIB.
func TestPipelinedBuildIsOnePlane(t *testing.T) {
	small, err := topology.ProfileConfig(topology.Epoch2016, topology.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	faulty := small
	faulty.Faults = &netsim.FaultConfig{LossProb: 0.05, LossFrac: 0.25, OutageFrac: 0.02, WithdrawFrac: 0.05}
	for name, cfg := range map[string]topology.Config{
		"scale0.15":   topology.DefaultConfig(topology.Epoch2016).Scale(0.15),
		"small":       small,
		"small+fault": faulty,
	} {
		t.Run(name, func(t *testing.T) {
			build := func(procs int) *topology.Topology {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				return topology.MustBuild(cfg)
			}
			one, four := build(1), build(4)
			if len(one.Routes.Next) != len(four.Routes.Next) {
				t.Fatalf("%d route rows, want %d", len(four.Routes.Next), len(one.Routes.Next))
			}
			for d := range one.Routes.Next {
				if !slices.Equal(one.Routes.Next[d], four.Routes.Next[d]) {
					t.Fatalf("route row %d differs", d)
				}
			}
			want, got := netsim.FrozenTables(one.Net), netsim.FrozenTables(four.Net)
			for table := range want {
				if !reflect.DeepEqual(want[table], got[table]) {
					t.Errorf("plane table %s differs", table)
				}
			}
		})
	}
}
