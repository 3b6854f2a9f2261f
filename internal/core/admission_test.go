package core

import (
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// churnManager wires a churn preset under a managed Best-Fit with the
// given admission policy, returning the scenario, runner and manager.
func churnManager(t *testing.T, preset string, seed uint64, adm AdmissionPolicy) (*scenario.Scenario, *lifecycle.Runner, *Manager) {
	t.Helper()
	sc, err := scenario.Build(scenario.MustPreset(preset, seed))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Script == nil {
		t.Fatalf("preset %q generated no churn script", preset)
	}
	runner := lifecycle.NewRunner(sc.Script)
	mgr, err := NewManager(ManagerConfig{
		World:      sc.World,
		Scheduler:  sched.NewBestFit(costFor(sc), sched.NewOverbooked()),
		RoundTicks: 10,
		Lifecycle:  runner,
		Admission:  adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	return sc, runner, mgr
}

// TestManagedChurnRun drives a storm scenario end to end and checks the
// lifecycle bookkeeping stays consistent with the engine's population.
func TestManagedChurnRun(t *testing.T) {
	sc, runner, mgr := churnManager(t, scenario.ChurnStorm, 11, AdmissionPolicy{})
	staticN := len(sc.VMs)
	if err := mgr.Run(300, nil); err != nil {
		t.Fatal(err)
	}
	st := runner.Stats()
	if st.Offered == 0 || st.Admitted == 0 {
		t.Fatalf("no churn happened: %+v", st)
	}
	if st.Offered != st.Admitted+st.Rejected+runner.PendingDeferred() {
		t.Fatalf("offer accounting leaks: %+v with %d deferred", st, runner.PendingDeferred())
	}
	wantLive := staticN + st.Admitted - st.Departed
	if got := sc.World.NumActiveVMs(); got != wantLive {
		t.Fatalf("live VMs %d, want static %d + admitted %d - departed %d = %d",
			got, staticN, st.Admitted, st.Departed, wantLive)
	}
	if st.Placed == 0 {
		t.Fatal("no admitted VM ever reached a host")
	}
	// Departed VMs must be fully gone: no retired slot's last tenant is
	// still known to, or hosted by, the World.
	for i := 0; i < sc.World.NumVMs(); i++ {
		if sc.World.ActiveVM(i) {
			continue
		}
		id := sc.World.VMSpecAt(i).ID
		if _, known := sc.World.LookupVM(id); known || sc.World.HostOf(id) != model.NoPM {
			t.Fatalf("departed VM %v still known to the World", id)
		}
	}
}

// TestManagedChurnDeterminism runs the identical churn setup twice and
// demands bit-identical money and churn outcomes — the seeded event queue
// makes dynamic workloads replayable.
func TestManagedChurnDeterminism(t *testing.T) {
	run := func() (interface{}, lifecycle.Stats) {
		sc, runner, mgr := churnManager(t, scenario.ChurnPoisson, 23, AdmissionPolicy{})
		if err := mgr.Run(240, nil); err != nil {
			t.Fatal(err)
		}
		return sc.World.Ledger(), runner.Stats()
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 {
		t.Fatalf("ledgers diverged across identical runs:\n%+v\n%+v", l1, l2)
	}
	if s1 != s2 {
		t.Fatalf("churn stats diverged across identical runs:\n%+v\n%+v", s1, s2)
	}
}

// TestAdmissionCapacityGate pins the defer-then-reject arm: a ceiling no
// arrival can fit under defers every offer until the deadline passes,
// then rejects it, and the fleet population never grows.
func TestAdmissionCapacityGate(t *testing.T) {
	sc, runner, mgr := churnManager(t, scenario.ChurnStorm, 11, AdmissionPolicy{TargetUtil: 0.0001})
	staticN := len(sc.VMs)
	if err := mgr.Run(300, nil); err != nil {
		t.Fatal(err)
	}
	st := runner.Stats()
	if st.Admitted != 0 {
		t.Fatalf("impossible ceiling admitted %d VMs", st.Admitted)
	}
	if st.Rejected == 0 || st.Deferrals == 0 {
		t.Fatalf("gate never deferred/rejected: %+v", st)
	}
	if got := sc.World.NumActiveVMs(); got != staticN {
		t.Fatalf("population grew to %d under a closed gate", got)
	}
}

// TestAdmissionDisabled admits everything regardless of pressure.
func TestAdmissionDisabled(t *testing.T) {
	_, runner, mgr := churnManager(t, scenario.ChurnStorm, 11, AdmissionPolicy{Disabled: true})
	if err := mgr.Run(300, nil); err != nil {
		t.Fatal(err)
	}
	st := runner.Stats()
	if st.Offered == 0 || st.Admitted != st.Offered {
		t.Fatalf("admit-all gated something: %+v", st)
	}
}

// constModel is a stand-in regressor for every bundle model.
type constModel float64

func (c constModel) Predict([]float64) float64 { return float64(c) }

// TestAdmissionDecideZeroAlloc pins the deferral path's allocation
// contract: a deferred offer re-enters decide every tick, so sizing it
// with the bundle (and running the SLA gate) must reuse the policy's
// scratch rather than allocate per call.
func TestAdmissionDecideZeroAlloc(t *testing.T) {
	m := constModel(0.5)
	pol := AdmissionPolicy{
		Bundle:          &predict.Bundle{VMCPU: m, VMMem: m, VMIn: m, VMOut: m, PMCPU: m, VMRT: m, VMSLA: m},
		MinPredictedSLA: 0.1,
	}
	sc, _, mgr := churnManager(t, scenario.ChurnStorm, 11, pol)
	o := &lifecycle.Offer{Arrival: &sc.Script.Arrivals[0]}
	w := sc.World
	fleet := fleetCommitmentOf(w)
	adm := &mgr.cfg.Admission
	adm.decide(w, 0, o, fleet, model.Resources{}) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		adm.decide(w, 0, o, fleet, model.Resources{})
	})
	if allocs != 0 {
		t.Fatalf("decide: %v allocs per call, want 0", allocs)
	}
}
