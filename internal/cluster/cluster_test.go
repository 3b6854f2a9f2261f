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
	if inv.NumVMs() != 3 || inv.VMs()[1].Name != "b" {
		t.Fatalf("VMs = %+v", inv.VMs())
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
