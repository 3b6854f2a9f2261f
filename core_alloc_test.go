package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestManagedTickZeroAlloc extends the engine's zero-alloc tick contract
// to the manager around it: a plain (non-round) Manager.Step on a serial,
// instrumented world allocates nothing once the monitor rings are full.
func TestManagedTickZeroAlloc(t *testing.T) {
	for _, preset := range []string{scenario.MultiDC, scenario.XLargeFleet} {
		t.Run(preset, func(t *testing.T) {
			spec := scenario.MustPreset(preset, benchSeed)
			spec.TickWorkers = 1
			sc, err := scenario.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
				t.Fatal(err)
			}
			sc.World.SetMetrics(sim.NewEngineMetrics(obs.NewRegistry()))
			cost := sched.NewCostModel(sc.Topology, 1.0/6)
			mgr, err := core.NewManager(core.ManagerConfig{
				World:      sc.World,
				Scheduler:  sched.NewBestFit(cost, sched.NewOverbooked()),
				RoundTicks: 1 << 30, // no round inside the measured window
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ { // warm-up: monitor rings reach capacity
				if _, err := mgr.Step(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := mgr.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Manager.Step allocates %.1f objects per plain tick, want 0", allocs)
			}
			if mgr.Rounds() != 0 {
				t.Fatalf("%d rounds ran inside the measured window", mgr.Rounds())
			}
		})
	}
}
