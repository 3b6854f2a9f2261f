package sim_test

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// stubLoad is a controllable workload: one load stream per VM, all at
// source 0, mutable between ticks.
type stubLoad struct {
	rps     map[model.VMID]float64
	cpuTime float64
}

func (s *stubLoad) Fill(tick int, vms []model.VMID, dst []model.LoadVector) {
	for i, id := range vms {
		row := dst[i]
		for k := range row {
			row[k] = model.Load{}
		}
		if r := s.rps[id]; r > 0 && len(row) > 0 {
			row[0] = model.Load{RPS: r, BytesInReq: 500, BytesOutRq: 10000, CPUTimeReq: s.cpuTime}
		}
	}
}

// churnEngine builds a tiny single-DC world with slot headroom and the
// stub workload: one Atom host, one static VM, two extra slots.
func churnEngine(t *testing.T, stub *stubLoad) *sim.World {
	t.Helper()
	pms := []model.PMSpec{{ID: 0, DC: 0, Capacity: model.Resources{CPUPct: 400, MemMB: 4096, BWMbps: 1000}, Cores: 4}}
	vms := []model.VMSpec{{
		ID: 0, Name: "static0", ImageSizeGB: 4, BaseMemMB: 256, MaxMemMB: 1024,
		Terms: model.DefaultSLATerms, PriceEURh: 0.17, HomeDC: 0,
	}}
	inv, err := cluster.NewInventory(pms, vms)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewWorld(sim.Config{
		Inventory:    inv,
		Topology:     network.PaperTopology(),
		Generator:    stub,
		Seed:         7,
		ExtraVMSlots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func dynSpec(id model.VMID) model.VMSpec {
	return model.VMSpec{
		ID: id, Name: "dyn", ImageSizeGB: 4, BaseMemMB: 256, MaxMemMB: 1024,
		Terms: model.DefaultSLATerms, PriceEURh: 0.17, HomeDC: 0,
	}
}

// TestAdmitVMSlotsExhausted pins AdmitVM's full-world error: the
// ErrSlotsExhausted sentinel, returned without allocating — a deferred
// arrival retries admission every tick while slot pressure lasts.
func TestAdmitVMSlotsExhausted(t *testing.T) {
	stub := &stubLoad{rps: map[model.VMID]float64{}, cpuTime: 0.01}
	eng := churnEngine(t, stub)
	for _, id := range []model.VMID{100, 101} {
		if _, err := eng.AdmitVM(dynSpec(id), model.Resources{}); err != nil {
			t.Fatal(err)
		}
	}
	spec := dynSpec(102)
	if _, err := eng.AdmitVM(spec, model.Resources{}); !errors.Is(err, sim.ErrSlotsExhausted) {
		t.Fatalf("admission into a full world: %v, want ErrSlotsExhausted", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.AdmitVM(spec, model.Resources{}); err != sim.ErrSlotsExhausted {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AdmitVM into a full world: %v allocs, want 0", allocs)
	}
	if eng.NumActiveVMs() != 3 {
		t.Fatalf("%d active VMs after refused admissions, want 3", eng.NumActiveVMs())
	}
}

// TestAdmitRetireHandles pins the generation-indexed handle contract:
// slots are reused through the free-list, every reuse bumps the
// generation, and stale handles fail every operation.
func TestAdmitRetireHandles(t *testing.T) {
	stub := &stubLoad{rps: map[model.VMID]float64{}, cpuTime: 0.01}
	eng := churnEngine(t, stub)

	if got := eng.NumActiveVMs(); got != 1 {
		t.Fatalf("static population: %d active, want 1", got)
	}
	// The static population is permanent: retiring it must fail without
	// touching any state (the handle is otherwise perfectly valid).
	if err := eng.PlaceInitial(model.Placement{0: 0}); err != nil {
		t.Fatal(err)
	}
	if hs, ok := eng.HandleOf(0); !ok {
		t.Fatal("static slot has no handle")
	} else if err := eng.RetireVM(hs); err == nil {
		t.Fatal("static inventory VM retired")
	}
	if eng.HostIndexOf(0) != 0 || eng.HostOf(0) != 0 {
		t.Fatal("failed static retire mutated placement state")
	}
	h1, err := eng.AdmitVM(dynSpec(100), model.Resources{})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Valid(h1) || eng.NumActiveVMs() != 2 {
		t.Fatalf("admit failed: valid=%v active=%d", eng.Valid(h1), eng.NumActiveVMs())
	}
	if _, dup := eng.AdmitVM(dynSpec(100), model.Resources{}); dup == nil {
		t.Fatal("duplicate ID admitted")
	}
	h2, err := eng.AdmitVM(dynSpec(101), model.Resources{})
	if err != nil {
		t.Fatal(err)
	}
	// Capacity is 1 static + 2 extra: a third dynamic VM must be refused.
	if _, err := eng.AdmitVM(dynSpec(102), model.Resources{}); err == nil {
		t.Fatal("admission beyond slot capacity succeeded")
	}
	if err := eng.RetireVM(h1); err != nil {
		t.Fatal(err)
	}
	if eng.Valid(h1) {
		t.Fatal("retired handle still valid")
	}
	if err := eng.RetireVM(h1); err == nil {
		t.Fatal("double retire succeeded")
	}
	// The freed slot is reused — same slot, new generation.
	h3, err := eng.AdmitVM(dynSpec(102), model.Resources{})
	if err != nil {
		t.Fatal(err)
	}
	if h3.Slot != h1.Slot {
		t.Fatalf("free-list not reused: slot %d, want %d", h3.Slot, h1.Slot)
	}
	if h3.Gen == h1.Gen {
		t.Fatal("slot reuse did not bump the generation")
	}
	if eng.Valid(h1) {
		t.Fatal("stale handle resolves after slot reuse")
	}
	if i, ok := eng.VMIndex(100); ok {
		t.Fatalf("retired VM still resolves to slot %d", i)
	}
	if err := eng.RetireVM(h2); err != nil {
		t.Fatal(err)
	}
	if eng.NumActiveVMs() != 2 { // static0 + the re-admitted 102
		t.Fatalf("active VMs %d, want 2", eng.NumActiveVMs())
	}
}

// TestChurnBacklogBoundaries is the gateway-backlog regression gate at
// churn boundaries: the backlog never goes negative, drains to zero on a
// zero-arrival tick, and a slot reused by a new tenant starts with no
// inherited queue.
func TestChurnBacklogBoundaries(t *testing.T) {
	stub := &stubLoad{rps: map[model.VMID]float64{0: 200}, cpuTime: 0.05}
	eng := churnEngine(t, stub)
	if err := eng.PlaceInitial(model.Placement{0: 0}); err != nil {
		t.Fatal(err)
	}
	queueOf := func(id model.VMID) float64 {
		truth, ok := eng.VMTruthAt(id)
		if !ok {
			t.Fatalf("no truth for %v", id)
		}
		return truth.QueueLen
	}
	// Overload: 200 rps at 0.05 CPUs/req on a 4-core host must queue.
	for i := 0; i < 8; i++ {
		eng.Step()
		if q := queueOf(0); q < 0 {
			t.Fatalf("tick %d: negative backlog %v", i, q)
		}
	}
	if queueOf(0) <= 0 {
		t.Fatal("overload built no backlog")
	}
	// Zero-arrival tick: the idle gateway clears the queue entirely.
	stub.rps[0] = 0
	eng.Step()
	if q := queueOf(0); q != 0 {
		t.Fatalf("backlog %v after a zero-arrival tick, want 0", q)
	}

	// Churn boundary: a dynamic VM builds a backlog, retires, and the
	// slot's next tenant starts clean.
	h, err := eng.AdmitVM(dynSpec(200), model.Resources{})
	if err != nil {
		t.Fatal(err)
	}
	stub.rps[200] = 200
	if err := eng.ApplySchedule(model.Placement{200: 0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		eng.Step()
	}
	if queueOf(200) <= 0 {
		t.Fatal("dynamic VM built no backlog")
	}
	slot := int(h.Slot)
	if err := eng.RetireVM(h); err != nil {
		t.Fatal(err)
	}
	h2, err := eng.AdmitVM(dynSpec(201), model.Resources{})
	if err != nil {
		t.Fatal(err)
	}
	if int(h2.Slot) != slot {
		t.Fatalf("expected slot reuse (%d), got %d", slot, h2.Slot)
	}
	stub.rps[201] = 5 // light load: no reason for any queue
	if err := eng.ApplySchedule(model.Placement{201: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	if q := queueOf(201); q != 0 {
		t.Fatalf("reused slot inherited backlog %v, want 0", q)
	}
}

// TestEngineStepZeroAllocWithChurn extends the tick allocation gate to a
// churn-enabled engine: after admissions and a retirement (between
// ticks), the steady-state Step still allocates nothing — churn sizing
// happened once, at construction.
func TestEngineStepZeroAllocWithChurn(t *testing.T) {
	sc, err := scenario.Build(scenario.MustPreset(scenario.ChurnPoisson, 99))
	if err != nil {
		t.Fatal(err)
	}
	eng := sc.World
	if eng.VMSlotCap() <= eng.NumVMs() {
		t.Fatalf("churn preset reserved no extra slots: cap %d, static %d", eng.VMSlotCap(), eng.NumVMs())
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	// Admit the first scripted arrivals by hand (the manager normally
	// does this), host one of them, retire another: the slot machinery is
	// exercised in every direction before measuring.
	if len(sc.Script.Arrivals) < 3 {
		t.Fatalf("script too short: %d arrivals", len(sc.Script.Arrivals))
	}
	var handles []sim.VMHandle
	for i := 0; i < 3; i++ {
		h, err := eng.AdmitVM(sc.Script.Arrivals[i].Spec, model.Resources{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := eng.ApplySchedule(model.Placement{sc.Script.Arrivals[0].Spec.ID: 0}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RetireVM(handles[1]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ { // warmup: monitor rings reach capacity
		eng.Step()
	}
	avg := testing.AllocsPerRun(100, func() { eng.Step() })
	if avg != 0 {
		t.Fatalf("churn-enabled World.Step allocates %.1f times per tick, want 0", avg)
	}
}

// TestFixedPopulationSlotParity proves the slot machinery is invisible to
// fixed populations: an engine built with spare churn slots (but no churn
// events) is bit-identical — every tick summary and the final ledger — to
// one built without, across placement changes.
func TestFixedPopulationSlotParity(t *testing.T) {
	build := func(extra int) *sim.World {
		sc, err := scenario.Build(scenario.Spec{
			Name: "slot-parity", Seed: 4242,
			DCs: 3, PMsPerDC: 2, VMs: 5,
			LoadScale: 1.8, NoiseSD: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sim.NewWorld(sim.Config{
			Inventory:    sc.Inventory,
			Topology:     sc.Topology,
			Generator:    sc.Generator,
			Seed:         4242,
			ExtraVMSlots: extra,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.PlaceInitial(sc.HomePlacement()); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	plain, slotted := build(0), build(8)
	churn := model.Placement{0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
	for tick := 0; tick < 120; tick++ {
		if tick == 50 {
			if err := plain.ApplySchedule(churn); err != nil {
				t.Fatal(err)
			}
			if err := slotted.ApplySchedule(churn); err != nil {
				t.Fatal(err)
			}
		}
		a, b := plain.Step(), slotted.Step()
		if a != b {
			t.Fatalf("tick %d diverged:\nplain   %+v\nslotted %+v", tick, a, b)
		}
	}
	if plain.Ledger() != slotted.Ledger() {
		t.Fatalf("ledgers diverged: %+v vs %+v", plain.Ledger(), slotted.Ledger())
	}
}
