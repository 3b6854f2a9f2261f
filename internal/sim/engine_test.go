package sim_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/scenario"
)

// TestEngineStepDoesNotAllocate is the allocation regression gate for the
// tick hot path: after warmup (monitor rings filled), a tick must perform
// zero allocations — no per-tick maps, no fresh load vectors, no truth
// structs.
func TestEngineStepDoesNotAllocate(t *testing.T) {
	sc, err := scenario.Build(scenario.Spec{
		Name: "allocs", Seed: 99,
		DCs: 4, PMsPerDC: 2, VMs: 6,
		LoadScale: 1.5, NoiseSD: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	eng := sc.World
	for i := 0; i < 30; i++ { // warmup: observer rings reach capacity
		eng.Step()
	}
	avg := testing.AllocsPerRun(100, func() { eng.Step() })
	if avg != 0 {
		t.Fatalf("World.Step allocates %.1f times per tick, want 0", avg)
	}
}

// TestEngineDenseAccessors pins the index-based API to the ID-based one.
func TestEngineDenseAccessors(t *testing.T) {
	sc, err := scenario.Build(scenario.Spec{
		Name: "dense", Seed: 7, DCs: 2, PMsPerDC: 2, VMs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sc.World
	if eng.NumVMs() != 3 || eng.NumPMs() != 4 {
		t.Fatalf("dense sizes: %d VMs, %d PMs", eng.NumVMs(), eng.NumPMs())
	}
	if err := sc.World.PlaceInitial(model.Placement{0: 0, 1: 1, 2: model.NoPM}); err != nil {
		t.Fatal(err)
	}
	sc.World.Step()
	for i := 0; i < eng.NumVMs(); i++ {
		id := eng.VMSpecAt(i).ID
		if got, ok := eng.VMIndex(id); !ok || got != i {
			t.Fatalf("VMIndex(%v) = %d,%v want %d", id, got, ok, i)
		}
	}
	if j := eng.HostIndexOf(2); j != -1 {
		t.Fatalf("unplaced VM has host index %d", j)
	}
	j := eng.HostIndexOf(0)
	if j < 0 || eng.PMSpecAt(j).ID != sc.World.HostOf(0) {
		t.Fatalf("HostIndexOf(0) = %d does not match state", j)
	}
	truth, ok := eng.VMTruthByIndex(0)
	if !ok || truth.Host != eng.PMSpecAt(j).ID {
		t.Fatalf("truth host %v != index host", truth.Host)
	}
	if len(truth.Load) != eng.Topology().NumDCs() || len(truth.RTBySource) != eng.Topology().NumDCs() {
		t.Fatalf("truth rows sized %d/%d, want %d", len(truth.Load), len(truth.RTBySource), eng.Topology().NumDCs())
	}
}
