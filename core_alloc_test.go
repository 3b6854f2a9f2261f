package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestManagedTickZeroAlloc extends the engine's zero-alloc tick contract
// to the manager around it: a plain (non-round) Manager.Step on a serial,
// instrumented world allocates nothing once the monitor rings are full.
func TestManagedTickZeroAlloc(t *testing.T) {
	step := func(t *testing.T, mgr *core.Manager) func() {
		return func() {
			if _, err := mgr.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
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
				step(t, mgr)()
			}
			allocs := testing.AllocsPerRun(50, step(t, mgr))
			if allocs != 0 {
				t.Fatalf("Manager.Step allocates %.1f objects per plain tick, want 0", allocs)
			}
			if mgr.Rounds() != 0 {
				t.Fatalf("%d rounds ran inside the measured window", mgr.Rounds())
			}
		})
	}
	// Serve's setup: a run assembled by sweep.NewManagedRun (registry
	// bf-ob) with empty scripts, so both lifecycle runners are attached
	// and record into the lifecycle family. Rounds run every
	// DefaultRoundTicks ticks, so each window steps over one round tick
	// and then measures the plain ticks up to the next. The scripted cases
	// keep their preset's own scripts and measure 40 windows, so
	// admissions, retirements and slot reuse fall inside them, and for
	// fail-az-outage the outage tick that evicts DC 0's guests.
	cases := []struct {
		name, preset string
		scripted     bool
		windows      int
	}{
		{"managed-run/" + scenario.MultiDC, scenario.MultiDC, false, 5},
		{"managed-run/" + scenario.XLargeFleet, scenario.XLargeFleet, false, 5},
		{"managed-run/" + scenario.ChurnPoisson, scenario.ChurnPoisson, false, 5},
		{"managed-run/" + scenario.FailAZOutage, scenario.FailAZOutage, false, 5},
		{"managed-run/" + scenario.ChurnPoisson + "-scripted", scenario.ChurnPoisson, true, 40},
		{"managed-run/" + scenario.FailAZOutage + "-scripted", scenario.FailAZOutage, true, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := scenario.MustPreset(tc.preset, benchSeed)
			spec.TickWorkers = 1
			sc, err := scenario.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.scripted {
				sc.Script, sc.Faults = &lifecycle.Script{}, &lifecycle.FaultScript{}
			}
			pol, err := sweep.PolicyByName("bf-ob")
			if err != nil {
				t.Fatal(err)
			}
			run, err := sweep.NewManagedRun(sc, pol, nil, sweep.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			mgr := run.Manager
			for i := 0; i < 3*sweep.DefaultRoundTicks; i++ { // warm-up
				step(t, mgr)()
			}
			// events counts what the scripts did: admissions, departures
			// and fault evictions.
			events := func() int {
				n := 0
				if run.Lifecycle != nil {
					st := run.Lifecycle.Stats()
					n += st.Admitted + st.Departed
				}
				if run.Faults != nil {
					n += run.Faults.Stats().Interruptions
				}
				return n
			}
			measured := 0
			for w := 0; w < tc.windows; w++ {
				step(t, mgr)() // the round tick
				rounds, before := mgr.Rounds(), events()
				// AllocsPerRun steps once more than its run count.
				allocs := testing.AllocsPerRun(sweep.DefaultRoundTicks-2, step(t, mgr))
				if allocs != 0 {
					t.Fatalf("window %d: Manager.Step allocates %.1f objects per plain tick, want 0", w, allocs)
				}
				if mgr.Rounds() != rounds {
					t.Fatalf("window %d: a round ran inside the measured window", w)
				}
				measured += events() - before
			}
			if tc.scripted && measured == 0 {
				t.Fatal("no scripted event fell inside the measured windows")
			}
		})
	}
}
