package core

import (
	"testing"

	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

func testScenario(t *testing.T, spec scenario.Spec) *scenario.Scenario {
	t.Helper()
	if spec.Seed == 0 {
		spec.Seed = 42
	}
	if spec.Name == "" {
		spec.Name = "core-test"
	}
	sc, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func costFor(sc *scenario.Scenario) sched.CostModel {
	return sched.NewCostModel(sc.Topology, 1.0/6)
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(ManagerConfig{}); err == nil {
		t.Fatal("accepted empty config")
	}
	sc := testScenario(t, scenario.Spec{VMs: 1, PMsPerDC: 1, DCs: 1})
	if _, err := NewManager(ManagerConfig{World: sc.World}); err == nil {
		t.Fatal("accepted nil scheduler")
	}
}

func TestManagerRunsRounds(t *testing.T) {
	sc := testScenario(t, scenario.Spec{VMs: 3, PMsPerDC: 2, DCs: 2})
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ManagerConfig{
		World:      sc.World,
		Scheduler:  sched.NewBestFit(costFor(sc), sched.NewObserved()),
		RoundTicks: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	if err := m.Run(35, func(sim.TickSummary) { ticks++ }); err != nil {
		t.Fatal(err)
	}
	if ticks != 35 {
		t.Fatalf("callback ran %d times", ticks)
	}
	// Rounds at ticks 10, 20, 30.
	if m.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3", m.Rounds())
	}
	// Every VM must remain placed.
	for _, vm := range sc.VMs {
		if sc.World.HostOf(vm.ID) == model.NoPM {
			t.Fatalf("VM %v unplaced after management", vm.ID)
		}
	}
}

func TestBuildProblemCarriesMonitoredState(t *testing.T) {
	sc := testScenario(t, scenario.Spec{VMs: 2, PMsPerDC: 1, DCs: 2})
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	sc.World.Run(12, nil)
	m, _ := NewManager(ManagerConfig{
		World:     sc.World,
		Scheduler: sched.NewBestFit(costFor(sc), sched.NewObserved()),
	})
	p := m.BuildProblem()
	if len(p.VMs) != 2 || len(p.Hosts) != 2 {
		t.Fatalf("problem = %d VMs, %d hosts", len(p.VMs), len(p.Hosts))
	}
	for _, vm := range p.VMs {
		if !vm.HasObserved {
			t.Fatalf("VM %v has no observations after 12 ticks", vm.Spec.ID)
		}
		if vm.Current == model.NoPM || vm.CurrentDC < 0 {
			t.Fatalf("VM %v current host missing", vm.Spec.ID)
		}
		if len(vm.Load) != 4 {
			t.Fatalf("VM %v load vector = %d sources", vm.Spec.ID, len(vm.Load))
		}
	}
}

func TestHierarchicalProducesValidPlacement(t *testing.T) {
	sc := testScenario(t, scenario.Spec{VMs: 5, PMsPerDC: 2, DCs: 4})
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	sc.World.Run(12, nil)
	h := NewHierarchical(sc.Inventory, costFor(sc), sched.NewObserved())
	m, _ := NewManager(ManagerConfig{World: sc.World, Scheduler: h})
	p := m.BuildProblem()
	placement, err := h.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(placement) != 5 {
		t.Fatalf("placement covers %d VMs", len(placement))
	}
	for vm, pm := range placement {
		if pm == model.NoPM {
			t.Fatalf("VM %v left unplaced", vm)
		}
		if _, ok := sc.Inventory.PM(pm); !ok {
			t.Fatalf("VM %v on ghost host %v", vm, pm)
		}
	}
}

func TestHierarchicalHandlesHomelessVMs(t *testing.T) {
	sc := testScenario(t, scenario.Spec{VMs: 3, PMsPerDC: 1, DCs: 2})
	// No initial placement: every VM is homeless and must enter via the
	// global round.
	sc.World.Run(3, nil)
	h := NewHierarchical(sc.Inventory, costFor(sc), sched.NewObserved())
	m, _ := NewManager(ManagerConfig{World: sc.World, Scheduler: h})
	placement, err := h.Schedule(m.BuildProblem())
	if err != nil {
		t.Fatal(err)
	}
	for vm, pm := range placement {
		if pm == model.NoPM {
			t.Fatalf("homeless VM %v still unplaced", vm)
		}
	}
}

func TestHierarchicalRequiresInventory(t *testing.T) {
	h := &Hierarchical{Cost: sched.CostModel{}, Est: sched.NewObserved()}
	if _, err := h.Schedule(&sched.Problem{}); err == nil {
		t.Fatal("accepted nil inventory")
	}
}

func TestManagedRunBeatsUnmanagedOverload(t *testing.T) {
	// All VMs dumped on one host vs a managed fleet that can spread them:
	// management must deliver better SLA.
	build := func() (*scenario.Scenario, model.Placement) {
		sc := testScenario(t, scenario.Spec{VMs: 5, PMsPerDC: 2, DCs: 2, LoadScale: 2, Seed: 7})
		pile := model.Placement{}
		for _, vm := range sc.VMs {
			pile[vm.ID] = 0
		}
		return sc, pile
	}
	// Unmanaged.
	scU, pileU := build()
	if err := scU.World.PlaceInitial(pileU); err != nil {
		t.Fatal(err)
	}
	sumU, n := 0.0, 6*60
	scU.World.Run(n, func(st sim.TickSummary) { sumU += st.AvgSLA })
	// Managed.
	scM, pileM := build()
	if err := scM.World.PlaceInitial(pileM); err != nil {
		t.Fatal(err)
	}
	// Plain observed Best-Fit cannot escape the pile (capped observations
	// say everything fits — the paper's vicious circle), so the managed run
	// uses the overbooked estimator, which sees through the cap.
	m, _ := NewManager(ManagerConfig{
		World:     scM.World,
		Scheduler: sched.NewBestFit(costFor(scM), sched.NewOverbooked()),
	})
	sumM := 0.0
	if err := m.Run(n, func(st sim.TickSummary) { sumM += st.AvgSLA }); err != nil {
		t.Fatal(err)
	}
	if sumM <= sumU {
		t.Fatalf("management did not help: managed %v vs unmanaged %v", sumM/float64(n), sumU/float64(n))
	}
}
