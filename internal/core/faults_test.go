package core

import (
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// faultedManager wires a static scenario under a managed Best-Fit with a
// hand-written fault script, returning the scenario, fault runner and
// manager (RoundTicks 10).
func faultedManager(t *testing.T, spec scenario.Spec, script *lifecycle.FaultScript, cfgFn func(*ManagerConfig)) (*scenario.Scenario, *lifecycle.FaultRunner, *Manager) {
	t.Helper()
	sc := testScenario(t, spec)
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	fr := lifecycle.NewFaultRunner(script)
	cfg := ManagerConfig{
		World:      sc.World,
		Scheduler:  sched.NewBestFit(costFor(sc), sched.NewOverbooked()),
		RoundTicks: 10,
		Faults:     fr,
	}
	if cfgFn != nil {
		cfgFn(&cfg)
	}
	mgr, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc, fr, mgr
}

// TestFaultScriptRehomesWithinRound pins the acceptance bar: a VM evicted
// by a scripted crash is back on a surviving host by the next scheduling
// round, with the wait recorded in the availability stats.
func TestFaultScriptRehomesWithinRound(t *testing.T) {
	spec := scenario.Spec{VMs: 3, PMsPerDC: 1, DCs: 3, Seed: 13}
	sc := testScenario(t, spec)
	victim := sc.HomePlacement()[0]
	script := &lifecycle.FaultScript{Events: []lifecycle.FaultEvent{
		{Tick: 12, Kind: lifecycle.FaultCrash, PM: victim},
	}}
	sc2, fr, mgr := faultedManager(t, spec, script, nil)
	if err := mgr.Run(25, nil); err != nil {
		t.Fatal(err)
	}
	newHost := sc2.World.HostOf(0)
	if newHost == model.NoPM {
		t.Fatal("vm0 still homeless after a full round")
	}
	if newHost == victim {
		t.Fatal("vm0 back on the crashed host")
	}
	st := fr.Stats()
	if st.Crashes != 1 || st.Rehomed == 0 {
		t.Fatalf("fault stats %+v", st)
	}
	if st.MaxRehomeTicks > 10 {
		t.Fatalf("re-home took %d ticks, more than one round", st.MaxRehomeTicks)
	}
	if st.DowntimeTicks == 0 || st.Availability() >= 1 {
		t.Fatalf("eviction left no downtime trace: %+v", st)
	}
	if n := mgr.PendingRehomes(); n != 0 {
		t.Fatalf("%d evicted VMs still homeless", n)
	}
}

// TestDrainCompletesWithoutForcedEvictions pins the maintenance contract:
// a drain whose deadline spans full scheduling rounds migrates every
// guest off before the takedown, so nothing is ever evicted.
func TestDrainCompletesWithoutForcedEvictions(t *testing.T) {
	spec := scenario.Spec{VMs: 3, PMsPerDC: 1, DCs: 3, Seed: 13}
	sc := testScenario(t, spec)
	victim := sc.HomePlacement()[0]
	script := &lifecycle.FaultScript{Events: []lifecycle.FaultEvent{
		{Tick: 15, Kind: lifecycle.FaultDrainStart, PM: victim},
		{Tick: 45, Kind: lifecycle.FaultTakedown, PM: victim}, // 3 rounds later
		{Tick: 55, Kind: lifecycle.FaultRepair, PM: victim},
	}}
	sc2, fr, mgr := faultedManager(t, spec, script, nil)
	// Stop mid-drain: the draining host must be out of the candidate set
	// while its guests keep serving.
	if err := mgr.Run(18, nil); err != nil {
		t.Fatal(err)
	}
	if !sc2.World.IsDraining(victim) {
		t.Fatal("victim not draining at tick 18")
	}
	for _, h := range mgr.BuildProblem().Hosts {
		if h.Spec.ID == victim {
			t.Fatal("draining host still offered as candidate")
		}
	}
	if err := mgr.Run(42, nil); err != nil { // through takedown and repair
		t.Fatal(err)
	}
	st := fr.Stats()
	if st.DrainsStarted != 1 || st.Takedowns != 1 {
		t.Fatalf("fault stats %+v", st)
	}
	if st.ForcedEvictions != 0 || st.Interruptions != 0 {
		t.Fatalf("drain with a 3-round deadline forced evictions: %+v", st)
	}
	for _, vm := range sc2.VMs {
		if sc2.World.HostOf(vm.ID) == model.NoPM {
			t.Fatalf("VM %v homeless after drain cycle", vm.ID)
		}
	}
}

// TestDegradedDefersArrivalsAndSheds drives a total-capacity loss: every
// arrival after the crash is deferred (never admitted), and a dynamic VM
// homeless past the shedding deadline is retired with its scheduled
// departure cancelled.
func TestDegradedDefersArrivalsAndSheds(t *testing.T) {
	dynSpec := scenario.DefaultVMSpecs(1, 2)[0]
	dynSpec.ID = 100
	churn := &lifecycle.Script{Arrivals: []lifecycle.Arrival{
		{Spec: dynSpec, ArriveTick: 1, LifetimeTicks: 30}, // departs tick 31 if alive
	}}
	late := scenario.DefaultVMSpecs(1, 2)[0]
	late.ID = 101
	churn.Arrivals = append(churn.Arrivals,
		lifecycle.Arrival{Spec: late, ArriveTick: 30, LifetimeTicks: 100})

	script := &lifecycle.FaultScript{Events: []lifecycle.FaultEvent{
		{Tick: 12, Kind: lifecycle.FaultCrash, PM: 0},
		{Tick: 12, Kind: lifecycle.FaultCrash, PM: 1},
		{Tick: 12, Kind: lifecycle.FaultCrash, PM: 2},
		{Tick: 12, Kind: lifecycle.FaultCrash, PM: 3},
	}}
	var runner *lifecycle.Runner
	sc, fr, mgr := faultedManager(t, scenario.Spec{VMs: 2, PMsPerDC: 2, DCs: 2, Seed: 7, ExtraVMSlots: 2}, script,
		func(cfg *ManagerConfig) {
			runner = lifecycle.NewRunner(churn)
			cfg.Lifecycle = runner
			cfg.Degraded = DegradedPolicy{ShedAfterTicks: 15}
		})
	if err := mgr.Run(45, nil); err != nil {
		t.Fatal(err)
	}
	if !mgr.degraded {
		t.Fatal("fleet with zero surviving capacity not marked degraded")
	}
	cst := runner.Stats()
	if cst.Admitted != 1 {
		t.Fatalf("admitted %d, want only the pre-crash arrival", cst.Admitted)
	}
	if cst.Deferrals == 0 {
		t.Fatal("degraded mode never deferred the post-crash arrival")
	}
	fst := fr.Stats()
	if fst.Shed != 1 {
		t.Fatalf("shed %d dynamic VMs, want 1: %+v", fst.Shed, fst)
	}
	// The shed VM is gone for good: no live handle, and its scheduled
	// tick-31 departure must not have fired after the early retirement.
	if _, live := sc.World.LookupVM(100); live {
		t.Fatal("shed VM still live")
	}
	if cst.Departed != 0 {
		t.Fatalf("shed VM departed a second time: %+v", cst)
	}
	// Retiring closed its record: it was placed once (the tick-10 round)
	// and is neither placed nor re-homed again.
	if cst.Placed != 1 || fst.Rehomed != 0 {
		t.Fatalf("placed %d, re-homed %d after the shed, want 1 and 0", cst.Placed, fst.Rehomed)
	}
	// Static inventory is never shed — both VMs survive homeless.
	if got := sc.World.NumActiveVMs(); got != 2 || mgr.PendingRehomes() != 2 {
		t.Fatalf("live VMs %d, %d awaiting re-home, want the 2 static survivors", got, mgr.PendingRehomes())
	}
	if fst.DegradedTicks == 0 {
		t.Fatal("degraded window left no tick trace")
	}
}

// TestRehomeReservationGatesArrivals checks the priority inversion the
// issue forbids: while evicted VMs wait for the next round, their
// reserved requirements ride the pending sum, so a fresh arrival that
// would eat their headroom is deferred even though the fleet is not
// degraded.
func TestRehomeReservationGatesArrivals(t *testing.T) {
	arr := scenario.DefaultVMSpecs(1, 2)[0]
	arr.ID = 100
	churn := &lifecycle.Script{Arrivals: []lifecycle.Arrival{
		{Spec: arr, ArriveTick: 14, LifetimeTicks: 0,
			// Monster offer: admissible only if the re-home reservations
			// are left out of the pending sum.
			Offered: model.Load{RPS: 1e6, CPUTimeReq: 0.01}},
	}}
	spec := scenario.Spec{VMs: 3, PMsPerDC: 1, DCs: 3, Seed: 13, ExtraVMSlots: 1}
	sc := testScenario(t, spec)
	victim := sc.HomePlacement()[0]
	script := &lifecycle.FaultScript{Events: []lifecycle.FaultEvent{
		{Tick: 12, Kind: lifecycle.FaultCrash, PM: victim},
	}}
	var runner *lifecycle.Runner
	_, fr, mgr := faultedManager(t, spec, script, func(cfg *ManagerConfig) {
		runner = lifecycle.NewRunner(churn)
		cfg.Lifecycle = runner
	})
	if err := mgr.Run(25, nil); err != nil {
		t.Fatal(err)
	}
	if runner.Stats().Admitted != 0 {
		t.Fatalf("monster arrival admitted while evicted VMs waited: %+v", runner.Stats())
	}
	if fr.Stats().Rehomed == 0 {
		t.Fatal("evicted VMs never re-homed")
	}
}

// TestHomelessLedgerFlow follows one VM through the World's homeless
// record: evicted by a crash, re-homed by the next round (counted with its
// wait), then evicted again one tick later. The second eviction must
// reserve the VM once and age it from the new eviction, not from the
// first.
func TestHomelessLedgerFlow(t *testing.T) {
	spec := scenario.Spec{VMs: 3, PMsPerDC: 1, DCs: 3, Seed: 13}
	victim := testScenario(t, spec).HomePlacement()[0]
	script := &lifecycle.FaultScript{Events: []lifecycle.FaultEvent{
		{Tick: 12, Kind: lifecycle.FaultCrash, PM: victim},
	}}
	sc, fr, mgr := faultedManager(t, spec, script, nil)
	w := sc.World
	if err := mgr.Run(13, nil); err != nil { // ticks 0..12
		t.Fatal(err)
	}
	rec, ok := w.HomelessAt(0)
	if !ok || rec.Cause != sim.Evicted || rec.Since != 12 || rec.ID != 0 {
		t.Fatalf("vm0's record after the crash: %+v (open %v)", rec, ok)
	}
	if rec.Req == (model.Resources{}) {
		t.Fatal("the eviction reserved nothing for vm0")
	}
	if err := mgr.Run(8, nil); err != nil { // ticks 13..20: the tick-20 round
		t.Fatal(err)
	}
	host := w.HostOf(0)
	if host == model.NoPM {
		t.Fatal("vm0 not re-homed by the tick-20 round")
	}
	if _, ok := w.HomelessAt(0); ok || mgr.PendingRehomes() != 0 {
		t.Fatalf("re-homed vm0 still holds a record (%d pending)", mgr.PendingRehomes())
	}
	if st := fr.Stats(); st.Rehomed != 1 || st.RehomeTicksSum != 8 {
		t.Fatalf("re-home stats %+v, want one re-home after 8 ticks", st)
	}
	fr.Push(lifecycle.FaultEvent{Tick: 21, Kind: lifecycle.FaultCrash, PM: host})
	if _, err := mgr.Step(); err != nil { // tick 21
		t.Fatal(err)
	}
	homeless := 0
	var want model.Resources
	for i := 0; i < w.NumVMs(); i++ {
		if w.HostIndexOf(i) < 0 {
			homeless++
			r, ok := w.HomelessAt(i)
			if !ok {
				t.Fatalf("homeless vm%d has no record", i)
			}
			want = want.Add(r.Req)
		}
	}
	if got := mgr.PendingRehomes(); got != homeless {
		t.Fatalf("%d evicted VMs reserved, %d homeless", got, homeless)
	}
	if rec, _ := w.HomelessAt(0); rec.Since != 21 {
		t.Fatalf("re-evicted vm0 ages from tick %d, want 21", rec.Since)
	}
	if _, got := mgr.reserved(); got != want {
		t.Fatalf("evicted reservation %+v, want %+v", got, want)
	}
}
