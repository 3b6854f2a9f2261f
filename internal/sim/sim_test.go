package sim_test

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/scenario"
	. "repro/internal/sim"
)

// testOpts mirrors the historical scenario knobs the world tests exercise.
type testOpts struct {
	Seed               uint64
	VMs, PMsPerDC, DCs int
	LoadScale, NoiseSD float64
}

func newTestScenario(t *testing.T, opts testOpts) *scenario.Scenario {
	t.Helper()
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	sc, err := scenario.Build(scenario.Spec{
		Name: "sim-test", Seed: opts.Seed,
		DCs: opts.DCs, PMsPerDC: opts.PMsPerDC, VMs: opts.VMs,
		LoadScale: opts.LoadScale, NoiseSD: opts.NoiseSD,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{}); err == nil {
		t.Fatal("accepted empty config")
	}
}

func TestUnplacedVMsEarnNothing(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 2, PMsPerDC: 1, DCs: 2})
	st := sc.World.Step()
	if st.AvgSLA != 0 {
		t.Fatalf("unplaced AvgSLA = %v, want 0", st.AvgSLA)
	}
	if st.RevenueEUR != 0 {
		t.Fatalf("unplaced revenue = %v", st.RevenueEUR)
	}
	if st.ActivePMs != 0 || st.FacilityWatts != 0 {
		t.Fatalf("idle fleet burning power: %d PMs, %v W", st.ActivePMs, st.FacilityWatts)
	}
}

func TestPlacedVMServesWell(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 1})
	if err := sc.World.PlaceInitial(model.Placement{0: 0}); err != nil {
		t.Fatal(err)
	}
	var last TickSummary
	sc.World.Run(30, func(st TickSummary) { last = st })
	if last.AvgSLA < 0.9 {
		t.Fatalf("lone well-provisioned VM SLA = %v", last.AvgSLA)
	}
	if last.ActivePMs != 1 {
		t.Fatalf("ActivePMs = %d", last.ActivePMs)
	}
	if last.FacilityWatts < 40 || last.FacilityWatts > 50 {
		t.Fatalf("one Atom host facility watts = %v, want ~42-48", last.FacilityWatts)
	}
	truth, ok := sc.World.VMTruthAt(0)
	if !ok {
		t.Fatal("no truth recorded")
	}
	if !truth.Used.NonNegative() {
		t.Fatalf("negative usage: %v", truth.Used)
	}
	if truth.Used.CPUPct > truth.Granted.CPUPct+1e-9 {
		t.Fatal("VM used more CPU than granted")
	}
}

func TestPlaceInitialAfterStepFails(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 1})
	sc.World.Step()
	if err := sc.World.PlaceInitial(model.Placement{0: 0}); err == nil {
		t.Fatal("PlaceInitial allowed after Step")
	}
}

func TestOverloadDegradesSLA(t *testing.T) {
	// Crank load far beyond one host's capacity.
	sc := newTestScenario(t, testOpts{VMs: 4, PMsPerDC: 1, DCs: 1, LoadScale: 6})
	p := model.Placement{}
	for i := 0; i < 4; i++ {
		p[model.VMID(i)] = 0
	}
	if err := sc.World.PlaceInitial(p); err != nil {
		t.Fatal(err)
	}
	// Advance to midday where load is heavy.
	var worst float64 = 1
	sc.World.Run(12*60, func(st TickSummary) {
		if st.AvgSLA < worst {
			worst = st.AvgSLA
		}
	})
	if worst > 0.85 {
		t.Fatalf("4 heavy VMs on one Atom never stressed SLA: worst %v", worst)
	}
}

func TestMigrationBlackoutAndPenalty(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 2})
	if err := sc.World.PlaceInitial(model.Placement{0: 0}); err != nil {
		t.Fatal(err)
	}
	sc.World.Step()
	preLedger := sc.World.Ledger()
	if err := sc.World.ApplySchedule(model.Placement{0: 1}); err != nil {
		t.Fatal(err)
	}
	if sc.World.TotalMigrations() != 1 {
		t.Fatalf("migrations = %d", sc.World.TotalMigrations())
	}
	post := sc.World.Ledger()
	if post.Penalties() <= preLedger.Penalties() {
		t.Fatal("migration charged no penalty")
	}
	st := sc.World.Step()
	truth, _ := sc.World.VMTruthAt(0)
	if !truth.Migrating {
		t.Fatal("VM not marked migrating")
	}
	// The blackout must visibly depress SLA this tick.
	if st.AvgSLA > 0.95 {
		t.Fatalf("migration tick SLA = %v, expected depression", st.AvgSLA)
	}
	// Next tick the VM recovers (migration lasted under a minute).
	st2 := sc.World.Step()
	if st2.AvgSLA <= st.AvgSLA {
		t.Fatalf("SLA did not recover after migration: %v -> %v", st.AvgSLA, st2.AvgSLA)
	}
}

func TestInitialPlacementViaApplyCostsNothing(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 2})
	if err := sc.World.ApplySchedule(model.Placement{0: 0}); err != nil {
		t.Fatal(err)
	}
	if sc.World.TotalMigrations() != 0 {
		t.Fatal("first placement counted as migration")
	}
}

func TestConsolidationUsesFewerWatts(t *testing.T) {
	// Two VMs on one PM vs two PMs: consolidated must burn fewer watts.
	run := func(p model.Placement) float64 {
		sc := newTestScenario(t, testOpts{VMs: 2, PMsPerDC: 2, DCs: 1})
		if err := sc.World.PlaceInitial(p); err != nil {
			t.Fatal(err)
		}
		var watts float64
		n := 60
		sc.World.Run(n, func(st TickSummary) { watts += st.FacilityWatts })
		return watts / float64(n)
	}
	consolidated := run(model.Placement{0: 0, 1: 0})
	spread := run(model.Placement{0: 0, 1: 1})
	if consolidated >= spread {
		t.Fatalf("consolidation not cheaper: %v vs %v", consolidated, spread)
	}
	if spread-consolidated < 25 {
		t.Fatalf("consolidation saving too small: %v W", spread-consolidated)
	}
}

func TestRemoteHostingAddsTransportRT(t *testing.T) {
	// Same VM hosted at home vs across the world: remote must see worse SLA
	// under identical load.
	run := func(pm model.PMID) float64 {
		sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 4, Seed: 9})
		if err := sc.World.PlaceInitial(model.Placement{0: pm}); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		n := 120
		sc.World.Run(n, func(st TickSummary) { sum += st.AvgSLA })
		return sum / float64(n)
	}
	home := run(0)   // Brisbane host, home DC 0
	remote := run(2) // Barcelona host: 390 ms away from Brisbane clients
	if home <= remote {
		t.Fatalf("remote hosting should cost SLA: home %v vs remote %v", home, remote)
	}
}

func TestPMTruthAndPerDCWatts(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 2, PMsPerDC: 1, DCs: 2})
	if err := sc.World.PlaceInitial(model.Placement{0: 0, 1: 1}); err != nil {
		t.Fatal(err)
	}
	st := sc.World.Step()
	watts, active := sc.World.PerDCWatts(), sc.World.PerDCActive()
	total, busy := 0.0, 0
	for dc, w := range watts {
		if (active[dc] > 0) != (w > 0) {
			t.Fatalf("DC %d: %d active hosts drawing %v W", dc, active[dc], w)
		}
		if active[dc] > 0 {
			busy++
		}
		total += w
	}
	if busy != 2 {
		t.Fatalf("%d DCs drawing power, want 2: %v", busy, watts)
	}
	if math.Abs(total-st.FacilityWatts) > 1e-9 {
		t.Fatalf("per-DC watts %v != total %v", total, st.FacilityWatts)
	}
	pt, ok := sc.World.PMTruthAt(0)
	if !ok || !pt.On || pt.Guests != 1 {
		t.Fatalf("PMTruth = %+v", pt)
	}
	// PM CPU must exceed its single guest's CPU (virtualisation overhead).
	vt, _ := sc.World.VMTruthAt(0)
	if pt.Usage.CPUPct <= vt.Used.CPUPct {
		t.Fatalf("PM CPU %v not above guest CPU %v", pt.Usage.CPUPct, vt.Used.CPUPct)
	}
	off, ok := sc.World.PMTruthAt(1)
	if !ok || !off.On {
		t.Fatal("PM 1 should be on (has guest)")
	}
}

func TestRequiredResourcesShape(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 1, PMsPerDC: 1, DCs: 1})
	spec := &sc.VMs[0]
	low := sc.World.RequiredResources(spec, model.Load{RPS: 5, CPUTimeReq: 0.01, BytesOutRq: 1000})
	high := sc.World.RequiredResources(spec, model.Load{RPS: 50, CPUTimeReq: 0.01, BytesOutRq: 1000})
	if high.CPUPct <= low.CPUPct || high.MemMB <= low.MemMB || high.BWMbps <= low.BWMbps {
		t.Fatalf("requirements not increasing in load: %v vs %v", low, high)
	}
	// Memory linear in RPS with the configured slope.
	slope := (high.MemMB - low.MemMB) / 45
	if math.Abs(slope-sc.World.Params().MemPerRPS) > 1e-9 {
		t.Fatalf("memory slope = %v", slope)
	}
	// Memory caps at the container limit.
	huge := sc.World.RequiredResources(spec, model.Load{RPS: 1e6, CPUTimeReq: 0.01})
	if huge.MemMB != spec.MaxMemMB {
		t.Fatalf("memory cap = %v, want %v", huge.MemMB, spec.MaxMemMB)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		sc := newTestScenario(t, testOpts{VMs: 3, PMsPerDC: 2, DCs: 2, Seed: 77, NoiseSD: 0.1})
		p := model.Placement{0: 0, 1: 1, 2: 2}
		if err := sc.World.PlaceInitial(p); err != nil {
			t.Fatal(err)
		}
		var out []float64
		sc.World.Run(50, func(st TickSummary) {
			out = append(out, st.AvgSLA, st.FacilityWatts, st.ProfitEUR)
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at index %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestQueueBacklogGrowsUnderOverload(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 4, PMsPerDC: 1, DCs: 1, LoadScale: 8})
	p := model.Placement{}
	for i := 0; i < 4; i++ {
		p[model.VMID(i)] = 0
	}
	if err := sc.World.PlaceInitial(p); err != nil {
		t.Fatal(err)
	}
	maxQ := 0.0
	sc.World.Run(12*60, func(TickSummary) {
		for i := 0; i < 4; i++ {
			if truth, ok := sc.World.VMTruthAt(model.VMID(i)); ok && truth.QueueLen > maxQ {
				maxQ = truth.QueueLen
			}
		}
	})
	if maxQ == 0 {
		t.Fatal("overloaded system never queued")
	}
}

func TestHomePlacement(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 5, PMsPerDC: 1, DCs: 4})
	p := sc.HomePlacement()
	for _, vm := range sc.VMs {
		pm := p[vm.ID]
		if sc.Inventory.DCOf(pm) != vm.HomeDC {
			t.Fatalf("VM %v placed at DC %v, home %v", vm.ID, sc.Inventory.DCOf(pm), vm.HomeDC)
		}
	}
}

func TestLedgerConsistency(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 2, PMsPerDC: 1, DCs: 2})
	sc.World.PlaceInitial(model.Placement{0: 0, 1: 1})
	var last TickSummary
	sc.World.Run(30, func(st TickSummary) { last = st })
	l := sc.World.Ledger()
	if math.Abs(l.Profit()-(l.Revenue()-l.Penalties()-l.EnergyCost())) > 1e-12 {
		t.Fatal("ledger identity violated")
	}
	if math.Abs(last.ProfitEUR-l.Profit()) > 1e-9 {
		t.Fatalf("tick profit %v != ledger %v", last.ProfitEUR, l.Profit())
	}
	if l.Ticks() != 30 {
		t.Fatalf("ticks = %d", l.Ticks())
	}
	if last.FacilityWatts <= 0 {
		t.Fatal("no facility watts recorded")
	}
}
