package core

import (
	"testing"

	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// TestManagerSurvivesHostFailure injects a PM crash mid-run and checks the
// MAPE loop reschedules the victims onto surviving hosts within one round.
func TestManagerSurvivesHostFailure(t *testing.T) {
	sc := testScenario(t, scenario.Spec{VMs: 3, PMsPerDC: 1, DCs: 3, Seed: 13})
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ManagerConfig{
		World:      sc.World,
		Scheduler:  sched.NewBestFit(costFor(sc), sched.NewOverbooked()),
		RoundTicks: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(15, nil); err != nil {
		t.Fatal(err)
	}
	victim := sc.World.HostOf(0)
	if victim == model.NoPM {
		t.Fatal("vm0 unplaced before failure")
	}
	if err := sc.World.FailPM(victim); err != nil {
		t.Fatal(err)
	}
	if sc.World.HostOf(0) != model.NoPM {
		t.Fatal("vm0 not evicted by failure")
	}
	// The next scheduling round (within 10 ticks) must re-home the VM on a
	// surviving host.
	if err := m.Run(12, nil); err != nil {
		t.Fatal(err)
	}
	newHost := sc.World.HostOf(0)
	if newHost == model.NoPM {
		t.Fatal("vm0 still homeless after a full round")
	}
	if newHost == victim {
		t.Fatal("vm0 returned to the failed host")
	}
	// The problem builder must keep excluding the corpse.
	p := m.BuildProblem()
	for _, h := range p.Hosts {
		if h.Spec.ID == victim {
			t.Fatal("failed host still offered as candidate")
		}
	}
	// Recovery restores it.
	sc.World.RecoverPM(victim)
	p = m.BuildProblem()
	found := false
	for _, h := range p.Hosts {
		if h.Spec.ID == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("recovered host missing from candidates")
	}
}
