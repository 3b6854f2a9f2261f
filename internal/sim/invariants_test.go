package sim_test

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/scenario"
	. "repro/internal/sim"
	"repro/internal/trace"
)

// TestWorldInvariantsUnderRandomPlacements drives a world through random
// placement churn and asserts the physical invariants every tick:
// bounded SLA, non-negative money flows, grants within capacity, power
// only on active hosts.
func TestWorldInvariantsUnderRandomPlacements(t *testing.T) {
	f := func(seed uint64, churn uint8) bool {
		sc, err := scenario.Build(scenario.Spec{
			Name: "invariants", Seed: seed%1000 + 1,
			DCs: 2, PMsPerDC: 2, VMs: 4, LoadScale: 2,
		})
		if err != nil {
			return false
		}
		pms := sc.Inventory.PMs()
		place := func(k int) model.Placement {
			p := model.Placement{}
			for i, vm := range sc.VMs {
				p[vm.ID] = pms[(i+k)%len(pms)].ID
			}
			return p
		}
		if err := sc.World.PlaceInitial(place(0)); err != nil {
			return false
		}
		period := int(churn%7) + 2
		prevRevenue, prevEnergy := 0.0, 0.0
		for tick := 0; tick < 60; tick++ {
			if tick > 0 && tick%period == 0 {
				if err := sc.World.ApplySchedule(place(tick)); err != nil {
					return false
				}
			}
			st := sc.World.Step()
			if st.AvgSLA < 0 || st.AvgSLA > 1 || st.MinSLA < 0 || st.MinSLA > 1 {
				t.Logf("SLA out of bounds: %+v", st)
				return false
			}
			if st.FacilityWatts < 0 || st.ActivePMs < 0 || st.ActivePMs > len(pms) {
				t.Logf("power/active out of bounds: %+v", st)
				return false
			}
			ledger := sc.World.Ledger()
			if ledger.Revenue() < prevRevenue-1e-9 || ledger.EnergyCost() < prevEnergy-1e-9 {
				t.Log("money flowed backwards")
				return false
			}
			prevRevenue, prevEnergy = ledger.Revenue(), ledger.EnergyCost()
			// Per-VM: grants within host capacity, usage within grants.
			for _, vm := range sc.VMs {
				truth, ok := sc.World.VMTruthAt(vm.ID)
				if !ok {
					return false
				}
				if truth.SLA < 0 || truth.SLA > 1 {
					return false
				}
				if !truth.Granted.NonNegative() || !truth.Used.NonNegative() {
					return false
				}
				if truth.Used.CPUPct > truth.Granted.CPUPct+1e-6 {
					t.Logf("usage above grant: %+v", truth)
					return false
				}
				if truth.RTProcess < 0 || truth.RTProcess > 20.0001 {
					return false
				}
			}
			// Per-PM: aggregate within capacity, watts only when on.
			for _, pm := range pms {
				pt, ok := sc.World.PMTruthAt(pm.ID)
				if !ok {
					continue
				}
				if pt.Usage.CPUPct > pm.Capacity.CPUPct+1e-6 {
					t.Logf("PM CPU above capacity: %+v", pt)
					return false
				}
				if !pt.On && pt.FacilityWatts != 0 {
					t.Log("off host drawing power")
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestWorldRunsOnReplayedTrace closes the loop between the synthetic
// generator, the CSV codec and the simulator: a world driven by a replayed
// export behaves identically to one driven by the generator.
func TestWorldRunsOnReplayedTrace(t *testing.T) {
	sc, err := scenario.Build(scenario.Spec{
		Name: "replay", Seed: 77, DCs: 2, PMsPerDC: 1, VMs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := sc.Generator
	var buf bytes.Buffer
	const ticks = 40
	if err := trace.ExportCSV(&buf, gen, ticks); err != nil {
		t.Fatal(err)
	}
	rep, err := trace.NewReplay(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	runWorld := func(w Workload) []float64 {
		world, err := NewWorld(Config{
			Inventory: sc.Inventory,
			Topology:  sc.Topology,
			Generator: w,
			Seed:      77,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := world.PlaceInitial(model.Placement{0: 0, 1: 0, 2: 1}); err != nil {
			t.Fatal(err)
		}
		var out []float64
		world.Run(ticks, func(st TickSummary) {
			out = append(out, st.AvgSLA, st.FacilityWatts)
		})
		return out
	}
	fromGen := runWorld(gen)
	fromReplay := runWorld(rep)
	for i := range fromGen {
		// The CSV codec stores full float precision, so any drift indicates
		// a real mismatch, not rounding.
		if math.Abs(fromGen[i]-fromReplay[i]) > 1e-9 {
			t.Fatalf("replayed world diverged at %d: %v vs %v", i, fromGen[i], fromReplay[i])
		}
	}
}
