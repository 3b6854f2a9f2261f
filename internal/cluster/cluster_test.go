package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func testInventory(t *testing.T) *Inventory {
	t.Helper()
	pms := []model.PMSpec{
		{ID: 0, DC: 0, Capacity: model.Resources{CPUPct: 400, MemMB: 4096, BWMbps: 100}, Cores: 4},
		{ID: 1, DC: 0, Capacity: model.Resources{CPUPct: 400, MemMB: 4096, BWMbps: 100}, Cores: 4},
		{ID: 2, DC: 1, Capacity: model.Resources{CPUPct: 400, MemMB: 4096, BWMbps: 100}, Cores: 4},
	}
	vms := []model.VMSpec{
		{ID: 0, Name: "a", HomeDC: 0},
		{ID: 1, Name: "b", HomeDC: 0},
		{ID: 2, Name: "c", HomeDC: 1},
	}
	inv, err := NewInventory(pms, vms)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

func TestInventoryValidation(t *testing.T) {
	if _, err := NewInventory(nil, nil); err == nil {
		t.Fatal("accepted empty fleet")
	}
	dup := []model.PMSpec{
		{ID: 0, Capacity: model.Resources{CPUPct: 400}},
		{ID: 0, Capacity: model.Resources{CPUPct: 400}},
	}
	if _, err := NewInventory(dup, nil); err == nil {
		t.Fatal("accepted duplicate PM ids")
	}
	zero := []model.PMSpec{{ID: 0}}
	if _, err := NewInventory(zero, nil); err == nil {
		t.Fatal("accepted zero-capacity PM")
	}
	dupVM := []model.PMSpec{{ID: 0, Capacity: model.Resources{CPUPct: 400}}}
	vms := []model.VMSpec{{ID: 1}, {ID: 1}}
	if _, err := NewInventory(dupVM, vms); err == nil {
		t.Fatal("accepted duplicate VM ids")
	}
}

func TestInventoryLookups(t *testing.T) {
	inv := testInventory(t)
	if inv.NumDCs() != 2 {
		t.Fatalf("NumDCs = %d", inv.NumDCs())
	}
	pm, ok := inv.PM(2)
	if !ok || pm.DC != 1 {
		t.Fatalf("PM(2) = %+v, %v", pm, ok)
	}
	if _, ok := inv.PM(99); ok {
		t.Fatal("found ghost PM")
	}
	vm, ok := inv.VM(1)
	if !ok || vm.Name != "b" {
		t.Fatalf("VM(1) = %+v", vm)
	}
	if _, ok := inv.VM(99); ok {
		t.Fatal("found ghost VM")
	}
	if got := inv.PMsOfDC(0); len(got) != 2 {
		t.Fatalf("PMsOfDC(0) = %v", got)
	}
	if inv.DCOf(2) != 1 {
		t.Fatalf("DCOf(2) = %v", inv.DCOf(2))
	}
	if inv.DCOf(model.NoPM) != -1 {
		t.Fatal("DCOf(NoPM) should be -1")
	}
}

func TestStatePlaceAndEvict(t *testing.T) {
	inv := testInventory(t)
	s := NewState(inv)
	if s.HostOf(0) != model.NoPM {
		t.Fatal("fresh VM should be unplaced")
	}
	if err := s.Place(0, 1); err != nil {
		t.Fatal(err)
	}
	if s.HostOf(0) != 1 {
		t.Fatalf("HostOf = %v", s.HostOf(0))
	}
	if s.DCOfVM(0) != 0 {
		t.Fatalf("DCOfVM = %v", s.DCOfVM(0))
	}
	// Move to another PM.
	if err := s.Place(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.GuestsOf(1); len(got) != 0 {
		t.Fatalf("old host still lists guest: %v", got)
	}
	if got := s.GuestsOf(2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("new host guests: %v", got)
	}
	// Evict.
	if err := s.Place(0, model.NoPM); err != nil {
		t.Fatal(err)
	}
	if s.HostOf(0) != model.NoPM {
		t.Fatal("eviction failed")
	}
	if s.DCOfVM(0) != -1 {
		t.Fatal("evicted VM should report DC -1")
	}
}

func TestStatePlaceErrors(t *testing.T) {
	inv := testInventory(t)
	s := NewState(inv)
	if err := s.Place(99, 0); err == nil {
		t.Fatal("accepted unknown VM")
	}
	if err := s.Place(0, 99); err == nil {
		t.Fatal("accepted unknown PM")
	}
}

func TestStateApplyReportsMoves(t *testing.T) {
	inv := testInventory(t)
	s := NewState(inv)
	p := model.Placement{0: 0, 1: 0, 2: 2}
	moved, err := s.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 3 {
		t.Fatalf("initial apply moved %v", moved)
	}
	// Idempotent re-apply moves nothing.
	moved, err = s.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 0 {
		t.Fatalf("re-apply moved %v", moved)
	}
	p2 := p.Clone()
	p2[1] = 2
	moved, _ = s.Apply(p2)
	if len(moved) != 1 || moved[0] != 1 {
		t.Fatalf("moved = %v", moved)
	}
}

func TestActivePMs(t *testing.T) {
	inv := testInventory(t)
	s := NewState(inv)
	if got := s.ActivePMs(); len(got) != 0 {
		t.Fatalf("fresh state active PMs: %v", got)
	}
	s.Place(0, 0)
	s.Place(1, 0)
	s.Place(2, 2)
	got := s.ActivePMs()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("ActivePMs = %v", got)
	}
}

// occupation applies fOccupation to one PM: every guest's requirement
// scaled by the PM's ShareFactors for the summed demand.
func occupation(capacity model.Resources, required map[model.VMID]model.Resources) map[model.VMID]model.Resources {
	var sum model.Resources
	for _, r := range required {
		sum = sum.Add(r)
	}
	cpu, mem, bw := ShareFactors(capacity, sum)
	grants := make(map[model.VMID]model.Resources, len(required))
	for vm, r := range required {
		grants[vm] = model.Resources{CPUPct: r.CPUPct * cpu, MemMB: r.MemMB * mem, BWMbps: r.BWMbps * bw}
	}
	return grants
}

func TestOccupationUnderSubscribed(t *testing.T) {
	cap := model.Resources{CPUPct: 400, MemMB: 4096, BWMbps: 100}
	req := map[model.VMID]model.Resources{
		0: {CPUPct: 100, MemMB: 512, BWMbps: 10},
		1: {CPUPct: 200, MemMB: 1024, BWMbps: 20},
	}
	grants := occupation(cap, req)
	for vm, r := range req {
		if grants[vm] != r {
			t.Fatalf("under-subscription should grant requirement: %v got %v", r, grants[vm])
		}
	}
}

func TestOccupationOverSubscribedProportional(t *testing.T) {
	cap := model.Resources{CPUPct: 400, MemMB: 4096, BWMbps: 100}
	req := map[model.VMID]model.Resources{
		0: {CPUPct: 300, MemMB: 1000, BWMbps: 10},
		1: {CPUPct: 500, MemMB: 1000, BWMbps: 10},
	}
	grants := occupation(cap, req)
	// CPU oversubscribed 800 > 400: each gets half its ask.
	if math.Abs(grants[0].CPUPct-150) > 1e-9 || math.Abs(grants[1].CPUPct-250) > 1e-9 {
		t.Fatalf("CPU grants = %v / %v", grants[0].CPUPct, grants[1].CPUPct)
	}
	// Memory and BW fit: granted in full.
	if grants[0].MemMB != 1000 || grants[1].BWMbps != 10 {
		t.Fatalf("non-contended grants wrong: %+v", grants)
	}
}

func TestOccupationPropertyNeverExceedsCapacity(t *testing.T) {
	f := func(a, b, c uint16) bool {
		cap := model.Resources{CPUPct: 400, MemMB: 4096, BWMbps: 100}
		req := map[model.VMID]model.Resources{
			0: {CPUPct: float64(a % 900), MemMB: float64(b % 8000), BWMbps: float64(c % 300)},
			1: {CPUPct: float64(b % 900), MemMB: float64(c % 8000), BWMbps: float64(a % 300)},
			2: {CPUPct: float64(c % 900), MemMB: float64(a % 8000), BWMbps: float64(b % 300)},
		}
		grants := occupation(cap, req)
		var sum model.Resources
		for _, g := range grants {
			sum = sum.Add(g)
		}
		const eps = 1e-6
		return sum.CPUPct <= cap.CPUPct+eps && sum.MemMB <= cap.MemMB+eps && sum.BWMbps <= cap.BWMbps+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOccupationPropertyGrantNeverExceedsAsk(t *testing.T) {
	f := func(a, b uint16) bool {
		cap := model.Resources{CPUPct: 400, MemMB: 4096, BWMbps: 100}
		req := map[model.VMID]model.Resources{
			0: {CPUPct: float64(a % 1200), MemMB: float64(b % 9000), BWMbps: float64(a % 500)},
			1: {CPUPct: float64(b % 1200), MemMB: float64(a % 9000), BWMbps: float64(b % 500)},
		}
		grants := occupation(cap, req)
		for vm, g := range grants {
			r := req[vm]
			if g.CPUPct > r.CPUPct+1e-9 || g.MemMB > r.MemMB+1e-9 || g.BWMbps > r.BWMbps+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGuestsOfSorted(t *testing.T) {
	inv := testInventory(t)
	s := NewState(inv)
	s.Place(2, 0)
	s.Place(0, 0)
	s.Place(1, 0)
	got := s.GuestsOf(0)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("GuestsOf not sorted: %v", got)
	}
}

// TestDynamicVMs covers the workload-lifecycle extension of State:
// dynamically added VMs place like inventory VMs and vanish without
// trace on removal; inventory VMs are permanent.
func TestDynamicVMs(t *testing.T) {
	inv := testInventory(t)
	s := NewState(inv)
	dyn := model.VMSpec{ID: 900, Name: "dyn"}
	if err := s.AddVM(dyn); err != nil {
		t.Fatal(err)
	}
	if err := s.AddVM(dyn); err == nil {
		t.Fatal("duplicate dynamic VM accepted")
	}
	if err := s.AddVM(inv.VMs()[0]); err == nil {
		t.Fatal("inventory VM re-added dynamically")
	}
	if got := s.HostOf(900); got != model.NoPM {
		t.Fatalf("dynamic VM born placed on %v", got)
	}
	pm := inv.PMs()[0].ID
	if err := s.Place(900, pm); err != nil {
		t.Fatal(err)
	}
	if spec, ok := s.DynamicVM(900); !ok || spec.Name != "dyn" {
		t.Fatalf("DynamicVM lookup failed: %+v %v", spec, ok)
	}
	found := false
	for _, g := range s.GuestsOf(pm) {
		if g == 900 {
			found = true
		}
	}
	if !found {
		t.Fatal("dynamic VM missing from guest list")
	}
	if err := s.RemoveVM(900); err != nil {
		t.Fatal(err)
	}
	for _, g := range s.GuestsOf(pm) {
		if g == 900 {
			t.Fatal("removed VM still a guest")
		}
	}
	if got := s.HostOf(900); got != model.NoPM {
		t.Fatalf("removed VM still placed on %v", got)
	}
	if err := s.Place(900, pm); err == nil {
		t.Fatal("removed VM still placeable")
	}
	if err := s.RemoveVM(inv.VMs()[0].ID); err == nil {
		t.Fatal("inventory VM removed")
	}
}
