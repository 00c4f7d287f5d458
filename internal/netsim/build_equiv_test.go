package netsim_test

import (
	"reflect"
	"runtime"
	"testing"

	"recordroute/internal/netsim"
	"recordroute/internal/topology"
)

// TestPipelinedBuildIsOnePlane builds the same configs on one processor
// and on four. AS routing runs beside the router wiring, on as many
// workers as there are processors, and neither may change what Build
// returns: every AS's next hop toward every other, and every table of the frozen
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
			for d := range one.ASes {
				for a := range one.ASes {
					if got, want := four.Routes.NextHop(a, d), one.Routes.NextHop(a, d); got != want {
						t.Fatalf("NextHop(%d, %d) = %d, want %d", a, d, got, want)
					}
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
