package sim_test

import (
	"testing"

	"repro/internal/model"
)

func TestDrainPMKeepsGuestsServing(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 2, PMsPerDC: 1, DCs: 2})
	if err := sc.World.PlaceInitial(model.Placement{0: 0, 1: 0}); err != nil {
		t.Fatal(err)
	}
	sc.World.Step()
	if err := sc.World.DrainPM(0); err != nil {
		t.Fatal(err)
	}
	if !sc.World.IsDraining(0) {
		t.Fatal("PM not marked draining")
	}
	// Draining is not failure: guests stay put and keep serving.
	if got := sc.World.HostOf(0); got != 0 {
		t.Fatalf("guest evicted by drain: host %v", got)
	}
	st := sc.World.Step()
	if st.AvgSLA <= 0 {
		t.Fatalf("guests on draining host stopped serving: SLA %v", st.AvgSLA)
	}
	if st.DrainingPMs != 1 || st.FailedPMs != 0 {
		t.Fatalf("tick summary counters %+v", st)
	}
}

func TestDrainPMRejectsNewPlacements(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 2, PMsPerDC: 1, DCs: 2})
	if err := sc.World.PlaceInitial(model.Placement{0: 0, 1: 1}); err != nil {
		t.Fatal(err)
	}
	sc.World.Step()
	if err := sc.World.DrainPM(1); err != nil {
		t.Fatal(err)
	}
	// Migrating a new VM onto the draining host is rejected...
	if err := sc.World.ApplySchedule(model.Placement{0: 1}); err == nil {
		t.Fatal("placement onto draining host accepted")
	}
	// ...but the incumbent may stay put while the drain migrates it out.
	if err := sc.World.ApplySchedule(model.Placement{1: 1}); err != nil {
		t.Fatalf("incumbent keep-in-place rejected: %v", err)
	}
	// Moving the incumbent out is the whole point.
	if err := sc.World.ApplySchedule(model.Placement{1: 0}); err != nil {
		t.Fatalf("drain-out migration rejected: %v", err)
	}
}

func TestRecoverPMClearsDrain(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 2})
	sc.World.DrainPM(1)
	if got := sc.World.DrainingPMs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DrainingPMs = %v", got)
	}
	if err := sc.World.RecoverPM(1); err != nil {
		t.Fatal(err)
	}
	if sc.World.IsDraining(1) || sc.World.NumDrainingPMs() != 0 {
		t.Fatal("recovery did not clear drain")
	}
	if err := sc.World.ApplySchedule(model.Placement{0: 1}); err != nil {
		t.Fatalf("recovered host rejected: %v", err)
	}
}

func TestCrashSupersedesDrain(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 2})
	if err := sc.World.PlaceInitial(model.Placement{0: 0}); err != nil {
		t.Fatal(err)
	}
	sc.World.Step()
	if err := sc.World.DrainPM(0); err != nil {
		t.Fatal(err)
	}
	// A crash during the drain evicts the guests the drain was keeping.
	if err := sc.World.FailPM(0); err != nil {
		t.Fatal(err)
	}
	if sc.World.IsDraining(0) {
		t.Fatal("crashed host still marked draining")
	}
	if !sc.World.IsFailed(0) {
		t.Fatal("crashed host not marked failed")
	}
	if got := sc.World.HostOf(0); got != model.NoPM {
		t.Fatalf("guest survived crash of draining host: %v", got)
	}
	if sc.World.NumFailedPMs() != 1 || sc.World.NumDrainingPMs() != 0 {
		t.Fatalf("counters failed=%d draining=%d, want 1/0",
			sc.World.NumFailedPMs(), sc.World.NumDrainingPMs())
	}
	// Recovery clears the failure in one step; there is no residual drain.
	if err := sc.World.RecoverPM(0); err != nil {
		t.Fatal(err)
	}
	if err := sc.World.ApplySchedule(model.Placement{0: 0}); err != nil {
		t.Fatalf("recovered host rejected: %v", err)
	}
}

func TestDrainUnknownAndIdempotent(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 1})
	if err := sc.World.DrainPM(99); err == nil {
		t.Fatal("accepted unknown PM")
	}
	if err := sc.World.DrainPM(0); err != nil {
		t.Fatal(err)
	}
	if err := sc.World.DrainPM(0); err != nil {
		t.Fatalf("double drain errored: %v", err)
	}
	if sc.World.NumDrainingPMs() != 1 {
		t.Fatalf("double drain double-counted: %d", sc.World.NumDrainingPMs())
	}
	// Draining a failed host is a no-op, not a state change.
	sc.World.RecoverPM(0)
	sc.World.FailPM(0)
	if err := sc.World.DrainPM(0); err != nil {
		t.Fatalf("drain of failed host errored: %v", err)
	}
	if sc.World.IsDraining(0) {
		t.Fatal("failed host marked draining")
	}
}

// TestEngineStepAllocFreeWithFaults extends the tick allocation gate to a
// fleet carrying fault state: a failed host, a draining host and evicted
// (unplaced) VMs add counters to the tick summary, never allocations.
func TestEngineStepAllocFreeWithFaults(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 6, PMsPerDC: 2, DCs: 3, Seed: 99})
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	eng := sc.World
	if err := eng.FailPM(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.DrainPM(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ { // warmup: observer rings reach capacity
		eng.Step()
	}
	avg := testing.AllocsPerRun(100, func() { eng.Step() })
	if avg != 0 {
		t.Fatalf("faulted World.Step allocates %.1f times per tick, want 0", avg)
	}
}

func TestUnplacedVMsCounted(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 2, PMsPerDC: 1, DCs: 2})
	if err := sc.World.PlaceInitial(model.Placement{0: 0, 1: 0}); err != nil {
		t.Fatal(err)
	}
	if st := sc.World.Step(); st.UnplacedVMs != 0 {
		t.Fatalf("placed VMs counted homeless: %+v", st)
	}
	if err := sc.World.FailPM(0); err != nil {
		t.Fatal(err)
	}
	st := sc.World.Step()
	if st.UnplacedVMs != 2 {
		t.Fatalf("UnplacedVMs %d, want 2 after eviction", st.UnplacedVMs)
	}
	if st.FailedPMs != 1 {
		t.Fatalf("FailedPMs %d, want 1", st.FailedPMs)
	}
}
