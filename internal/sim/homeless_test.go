package sim_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/sim"
)

// TestHomelessRecords follows the World's homeless-VM records through
// admission, a host failure, a placement, a retirement and slot reuse:
// records open in the order they are set (a failed host's guests in VMID
// order) with their cause, tick and reservation, close as housed or
// retired, and pruning keeps only the open ones in order.
func TestHomelessRecords(t *testing.T) {
	pms := make([]model.PMSpec, 4)
	for j := range pms {
		pms[j] = model.PMSpec{ID: model.PMID(j), DC: model.DCID(j / 2), Capacity: model.Resources{CPUPct: 400, MemMB: 4096, BWMbps: 1000}, Cores: 4}
	}
	vms := make([]model.VMSpec, 4)
	for i := range vms {
		vms[i] = dynSpec(model.VMID(i))
	}
	inv, err := cluster.NewInventory(pms, vms)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(sim.Config{
		Inventory: inv,
		Topology:  network.PaperTopology(),
		Generator: &stubLoad{rps: map[model.VMID]float64{0: 5, 1: 7, 2: 5, 3: 5}, cpuTime: 0.01},
		Seed:      3, ExtraVMSlots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PlaceInitial(model.Placement{1: 0, 0: 0, 2: 1, 3: 1}); err != nil {
		t.Fatal(err)
	}
	w.Step()
	req := model.Resources{CPUPct: 12, MemMB: 300}
	h100, err := w.AdmitVM(dynSpec(100), req)
	if err != nil {
		t.Fatal(err)
	}
	truth0, _ := w.VMTruthAt(0)
	truth1, _ := w.VMTruthAt(1)
	if err := w.FailPM(0); err != nil {
		t.Fatal(err)
	}
	want := []sim.Homeless{
		{ID: 100, Slot: h100.Slot, Cause: sim.Admitted, Since: 1, Req: req, Open: true},
		{ID: 0, Slot: 0, Cause: sim.Evicted, Since: 1, Req: truth0.Required, Open: true},
		{ID: 1, Slot: 1, Cause: sim.Evicted, Since: 1, Req: truth1.Required, Open: true},
	}
	checkRecords(t, w, want)
	if truth1.Required == (model.Resources{}) {
		t.Fatal("an evicted VM reserved nothing")
	}
	if w.NumHomeless(sim.Admitted) != 1 || w.NumHomeless(sim.Evicted) != 2 {
		t.Fatalf("open records: %d admitted, %d evicted", w.NumHomeless(sim.Admitted), w.NumHomeless(sim.Evicted))
	}

	// A round houses VMs 0 and 100; VM 101 is admitted and retires
	// before any host.
	if err := w.ApplySchedule(model.Placement{0: 2, 2: 1, 3: 1, 100: 3}); err != nil {
		t.Fatal(err)
	}
	h101, err := w.AdmitVM(dynSpec(101), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RetireVM(h101); err != nil {
		t.Fatal(err)
	}
	want[0].Open, want[0].Housed = false, true
	want[1].Open, want[1].Housed = false, true
	want = append(want, sim.Homeless{ID: 101, Slot: h101.Slot, Cause: sim.Admitted, Since: 1, Req: req})
	checkRecords(t, w, want)
	if _, ok := w.HomelessAt(int(h101.Slot)); ok {
		t.Fatal("a retired slot still holds a record")
	}
	if w.NumHomeless(sim.Admitted) != 0 || w.NumHomeless(sim.Evicted) != 1 {
		t.Fatalf("open records: %d admitted, %d evicted", w.NumHomeless(sim.Admitted), w.NumHomeless(sim.Evicted))
	}

	// The freed slot's next tenant gets a fresh record behind VM 1's.
	w.PruneHomeless()
	h102, err := w.AdmitVM(dynSpec(102), model.Resources{})
	if err != nil {
		t.Fatal(err)
	}
	if h102.Slot != h101.Slot {
		t.Fatalf("slot %d not reused (got %d)", h101.Slot, h102.Slot)
	}
	checkRecords(t, w, []sim.Homeless{want[2],
		{ID: 102, Slot: h102.Slot, Cause: sim.Admitted, Since: 1, Open: true}})

	// Churn on an unpruned list stays inside its construction capacity.
	allocs := testing.AllocsPerRun(100, func() {
		h, err := w.AdmitVM(dynSpec(103), req)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RetireVM(h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("admit + retire allocate %v times, want 0", allocs)
	}
}

// checkRecords compares the World's record list with want and checks
// that every open record is its slot's.
func checkRecords(t *testing.T, w *sim.World, want []sim.Homeless) {
	t.Helper()
	got := w.Homeless()
	if len(got) != len(want) {
		t.Fatalf("records %+v, want %+v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("record %d: %+v, want %+v", k, got[k], want[k])
		}
		if rec, ok := w.HomelessAt(int(got[k].Slot)); got[k].Open && (!ok || rec != got[k]) {
			t.Fatalf("slot %d holds %+v (%v), listed %+v", got[k].Slot, rec, ok, got[k])
		}
	}
}
