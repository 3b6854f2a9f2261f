package sim_test

import (
	"testing"

	"repro/internal/model"
)

func TestFailPMEvictsGuests(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 2, PMsPerDC: 1, DCs: 2})
	if err := sc.World.PlaceInitial(model.Placement{0: 0, 1: 0}); err != nil {
		t.Fatal(err)
	}
	sc.World.Step()
	if err := sc.World.FailPM(0); err != nil {
		t.Fatal(err)
	}
	if !sc.World.IsFailed(0) {
		t.Fatal("PM not marked failed")
	}
	if got := sc.World.HostOf(0); got != model.NoPM {
		t.Fatalf("guest still placed on failed host: %v", got)
	}
	st := sc.World.Step()
	if st.ActivePMs != 0 || st.FacilityWatts != 0 {
		t.Fatalf("failed host still drawing power: %+v", st)
	}
	if st.AvgSLA != 0 {
		t.Fatalf("evicted VMs still serving: SLA %v", st.AvgSLA)
	}
}

func TestFailPMUnknownAndIdempotent(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 1})
	if err := sc.World.FailPM(99); err == nil {
		t.Fatal("accepted unknown PM")
	}
	if err := sc.World.FailPM(0); err != nil {
		t.Fatal(err)
	}
	if err := sc.World.FailPM(0); err != nil {
		t.Fatalf("double fail errored: %v", err)
	}
	if err := sc.World.RecoverPM(99); err == nil {
		t.Fatal("recovered unknown PM")
	}
}

func TestApplyScheduleRejectsFailedTargets(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 2})
	if err := sc.World.FailPM(1); err != nil {
		t.Fatal(err)
	}
	if err := sc.World.ApplySchedule(model.Placement{0: 1}); err == nil {
		t.Fatal("placement onto failed host accepted")
	}
	if err := sc.World.ApplySchedule(model.Placement{0: 0}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverPMRestoresCandidacy(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 2})
	sc.World.FailPM(1)
	if got := sc.World.FailedPMs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("FailedPMs = %v", got)
	}
	sc.World.RecoverPM(1)
	if len(sc.World.FailedPMs()) != 0 {
		t.Fatal("recovery did not clear failure")
	}
	if err := sc.World.ApplySchedule(model.Placement{0: 1}); err != nil {
		t.Fatalf("recovered host rejected: %v", err)
	}
}

func TestFailureCancelsInFlightMigration(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 2})
	if err := sc.World.PlaceInitial(model.Placement{0: 0}); err != nil {
		t.Fatal(err)
	}
	sc.World.Step()
	if err := sc.World.ApplySchedule(model.Placement{0: 1}); err != nil {
		t.Fatal(err)
	}
	// The VM is mid-migration to host 1; host 1 dies.
	if err := sc.World.FailPM(1); err != nil {
		t.Fatal(err)
	}
	st := sc.World.Step()
	truth, _ := sc.World.VMTruthAt(0)
	if truth.Migrating {
		t.Fatal("migration survived target failure")
	}
	if st.AvgSLA != 0 {
		t.Fatalf("unplaced VM serving after target died: %v", st.AvgSLA)
	}
}
