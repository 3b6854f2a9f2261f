package sim_test

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/sla"
)

// placementSnapshot is everything a placement call may change: every
// slot's host, every guest list, the migration count and the ledger.
type placementSnapshot struct {
	hosts      []int
	guests     [][]model.VMID
	migrations int
	ledger     sla.Ledger
}

func snapshot(w *sim.World) placementSnapshot {
	s := placementSnapshot{migrations: w.TotalMigrations()}
	for i := 0; i < w.NumVMs(); i++ {
		s.hosts = append(s.hosts, w.HostIndexOf(i))
	}
	for j := 0; j < w.NumPMs(); j++ {
		s.guests = append(s.guests, w.AppendGuests(nil, w.PMSpecAt(j).ID))
	}
	s.ledger = w.Ledger()
	return s
}

func (s placementSnapshot) equal(o placementSnapshot) bool {
	if s.migrations != o.migrations || s.ledger != o.ledger || !slices.Equal(s.hosts, o.hosts) {
		return false
	}
	for j := range s.guests {
		if !slices.Equal(s.guests[j], o.guests[j]) {
			return false
		}
	}
	return true
}

// checkPlacement asserts that hostOf and the guest lists agree and that
// every guest list is in VMID order.
func checkPlacement(t *testing.T, w *sim.World) {
	t.Helper()
	placed := 0
	for i := 0; i < w.NumVMs(); i++ {
		j := w.HostIndexOf(i)
		if !w.ActiveVM(i) {
			if j >= 0 {
				t.Fatalf("inactive slot %d hosted on PM index %d", i, j)
			}
			continue
		}
		if j < 0 {
			continue
		}
		placed++
		id := w.VMSpecAt(i).ID
		if !slices.Contains(w.AppendGuests(nil, w.PMSpecAt(j).ID), id) {
			t.Fatalf("VM %v (slot %d) on PM index %d is missing from its guest list", id, i, j)
		}
		if got := w.HostOf(id); got != w.PMSpecAt(j).ID {
			t.Fatalf("HostOf(%v) = %v, slot says %v", id, got, w.PMSpecAt(j).ID)
		}
	}
	listed := 0
	for j := 0; j < w.NumPMs(); j++ {
		gs := w.AppendGuests(nil, w.PMSpecAt(j).ID)
		if !slices.IsSorted(gs) {
			t.Fatalf("guest list of PM index %d not in VMID order: %v", j, gs)
		}
		for _, id := range gs {
			i, ok := w.VMIndex(id)
			if !ok || w.HostIndexOf(i) != j {
				t.Fatalf("PM index %d lists %v, whose slot is hosted elsewhere", j, id)
			}
		}
		listed += len(gs)
	}
	if listed != placed {
		t.Fatalf("guest lists hold %d VMs, %d slots are placed", listed, placed)
	}
}

func TestWorldPlaceAndEvict(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 3, PMsPerDC: 2, DCs: 2})
	w := sc.World
	if w.HostOf(0) != model.NoPM || w.DCOfVM(0) != -1 {
		t.Fatal("fresh VM should be unplaced")
	}
	if err := w.ApplySchedule(model.Placement{0: 1}); err != nil {
		t.Fatal(err)
	}
	if w.HostOf(0) != 1 || w.DCOfVM(0) != 0 {
		t.Fatalf("HostOf = %v, DCOfVM = %v", w.HostOf(0), w.DCOfVM(0))
	}
	// Move to a PM of the other DC.
	if err := w.ApplySchedule(model.Placement{0: 2}); err != nil {
		t.Fatal(err)
	}
	if got := w.AppendGuests(nil, 1); len(got) != 0 {
		t.Fatalf("old host still lists guest: %v", got)
	}
	if got := w.AppendGuests(nil, 2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("new host guests: %v", got)
	}
	if w.DCOfVM(0) != 1 {
		t.Fatalf("DCOfVM after move = %v", w.DCOfVM(0))
	}
	// Evict.
	if err := w.ApplySchedule(model.Placement{0: model.NoPM}); err != nil {
		t.Fatal(err)
	}
	if w.HostOf(0) != model.NoPM || w.DCOfVM(0) != -1 || len(w.AppendGuests(nil, 2)) != 0 {
		t.Fatal("eviction failed")
	}
	if w.HostOf(99) != model.NoPM || w.DCOfVM(99) != -1 || w.AppendGuests(nil, 99) != nil {
		t.Fatal("unknown IDs should read as unplaced and empty")
	}
	checkPlacement(t, w)
}

func TestApplyScheduleCountsMoves(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 3, PMsPerDC: 2, DCs: 2})
	w := sc.World
	p := model.Placement{0: 0, 1: 0, 2: 2}
	if err := w.ApplySchedule(p); err != nil {
		t.Fatal(err)
	}
	if w.TotalMigrations() != 0 {
		t.Fatalf("initial placement counted %d migrations", w.TotalMigrations())
	}
	// Idempotent re-apply moves nothing.
	if err := w.ApplySchedule(p); err != nil {
		t.Fatal(err)
	}
	if w.TotalMigrations() != 0 {
		t.Fatalf("re-apply counted %d migrations", w.TotalMigrations())
	}
	p2 := p.Clone()
	p2[1] = 2
	if err := w.ApplySchedule(p2); err != nil {
		t.Fatal(err)
	}
	if w.TotalMigrations() != 1 || w.HostOf(1) != 2 {
		t.Fatalf("migrations = %d, host of VM 1 = %v", w.TotalMigrations(), w.HostOf(1))
	}
	checkPlacement(t, w)
}

func TestWorldGuestsOfSorted(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 3, PMsPerDC: 1, DCs: 2})
	w := sc.World
	for _, vm := range []model.VMID{2, 0, 1} {
		if err := w.ApplySchedule(model.Placement{vm: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.AppendGuests(nil, 0); !slices.Equal(got, []model.VMID{0, 1, 2}) {
		t.Fatalf("AppendGuests not sorted: %v", got)
	}
	// Moving the middle guest out and back keeps the order.
	if err := w.ApplySchedule(model.Placement{1: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.ApplySchedule(model.Placement{1: 0}); err != nil {
		t.Fatal(err)
	}
	if got := w.AppendGuests(nil, 0); !slices.Equal(got, []model.VMID{0, 1, 2}) {
		t.Fatalf("AppendGuests after a round trip: %v", got)
	}
}

// TestWorldActivePMs counts the hosts with at least one guest: none on
// a fresh world, then the two hosts that received VMs.
func TestWorldActivePMs(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 3, PMsPerDC: 2, DCs: 2})
	w := sc.World
	if st := w.Step(); st.ActivePMs != 0 {
		t.Fatalf("fresh world ActivePMs = %d, want 0", st.ActivePMs)
	}
	if err := w.ApplySchedule(model.Placement{0: 0, 1: 0, 2: 2}); err != nil {
		t.Fatal(err)
	}
	if st := w.Step(); st.ActivePMs != 2 {
		t.Fatalf("ActivePMs = %d, want 2", st.ActivePMs)
	}
}

// TestWorldDynamicVMs covers admitted VMs in the placement: they place
// like inventory VMs and vanish without trace on retirement; inventory
// VMs are permanent.
func TestWorldDynamicVMs(t *testing.T) {
	stub := &stubLoad{rps: map[model.VMID]float64{}, cpuTime: 0.01}
	w := churnEngine(t, stub)
	h, err := w.AdmitVM(dynSpec(900))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AdmitVM(dynSpec(900)); err == nil {
		t.Fatal("duplicate dynamic VM accepted")
	}
	if _, err := w.AdmitVM(dynSpec(0)); err == nil {
		t.Fatal("inventory VM re-admitted dynamically")
	}
	if w.IsStatic(h) {
		t.Fatal("admitted VM reported static")
	}
	if hs, _ := w.HandleOf(0); !w.IsStatic(hs) {
		t.Fatal("inventory VM reported dynamic")
	}
	if got := w.HostOf(900); got != model.NoPM {
		t.Fatalf("dynamic VM born placed on %v", got)
	}
	if err := w.ApplySchedule(model.Placement{0: 0, 900: 0}); err != nil {
		t.Fatal(err)
	}
	if got := w.AppendGuests(nil, 0); !slices.Equal(got, []model.VMID{0, 900}) {
		t.Fatalf("guests = %v", got)
	}
	if err := w.RetireVM(h); err != nil {
		t.Fatal(err)
	}
	if got := w.AppendGuests(nil, 0); !slices.Equal(got, []model.VMID{0}) {
		t.Fatalf("retired VM still a guest: %v", got)
	}
	if got := w.HostOf(900); got != model.NoPM {
		t.Fatalf("retired VM still placed on %v", got)
	}
	if err := w.ApplySchedule(model.Placement{900: 0}); err == nil {
		t.Fatal("retired VM still placeable")
	}
	checkPlacement(t, w)
}

// TestApplyScheduleChargesUnnamedVMs pins how ApplySchedule treats a
// placed VM that a schedule does not name: it keeps its host, yet it is
// charged one migration with its blackout and penalty. The charge is a
// known defect that the benchmark's recorded preset-sweep digest
// includes; mending it changes this test and that digest together.
func TestApplyScheduleChargesUnnamedVMs(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 8, PMsPerDC: 2, DCs: 2})
	w := sc.World
	all := model.Placement{}
	for vm := model.VMID(0); vm < 8; vm++ {
		all[vm] = 1
	}
	if err := w.PlaceInitial(all); err != nil {
		t.Fatal(err)
	}
	w.Step()
	before := w.Ledger()
	partial := all.Clone()
	delete(partial, 0)
	if err := w.ApplySchedule(partial); err != nil {
		t.Fatal(err)
	}
	if w.HostOf(0) != 1 || !slices.Equal(w.AppendGuests(nil, 1), []model.VMID{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("unnamed VM left its host: on %v, PM 1 hosts %v", w.HostOf(0), w.AppendGuests(nil, 1))
	}
	if w.TotalMigrations() != 1 {
		t.Fatalf("partial schedule counted %d migrations, want the 1 unnamed VM", w.TotalMigrations())
	}
	if l := w.Ledger(); l.Penalties() <= before.Penalties() {
		t.Fatal("unnamed VM charged no penalty")
	}
	w.Step()
	if truth, _ := w.VMTruthAt(0); !truth.Migrating {
		t.Fatal("unnamed VM not blacked out")
	}
	// Evicting VM 0 alone charges the seven placed VMs the schedule leaves
	// out; an unplaced VM left out is charged nothing.
	if err := w.ApplySchedule(model.Placement{0: model.NoPM}); err != nil {
		t.Fatal(err)
	}
	if w.TotalMigrations() != 8 {
		t.Fatalf("%d migrations after the eviction, want 1 + 7 unnamed", w.TotalMigrations())
	}
	if err := w.ApplySchedule(partial); err != nil {
		t.Fatal(err)
	}
	if w.TotalMigrations() != 8 || w.HostOf(0) != model.NoPM {
		t.Fatalf("unplaced unnamed VM: %d migrations, host %v", w.TotalMigrations(), w.HostOf(0))
	}
	checkPlacement(t, w)
}

// TestFailedScheduleChangesNothing pins that PlaceInitial and
// ApplySchedule check every entry before changing anything: a schedule
// with one bad entry leaves hosts, guest lists, the migration count and
// the ledger exactly as they were, whatever order the map yields.
func TestFailedScheduleChangesNothing(t *testing.T) {
	sc := newTestScenario(t, testOpts{VMs: 8, PMsPerDC: 2, DCs: 2})
	w := sc.World
	spread := model.Placement{}
	toPM0 := model.Placement{}
	for vm := model.VMID(0); vm < 8; vm++ {
		spread[vm] = model.PMID(vm % 4)
		toPM0[vm] = 0
	}
	bad := func(vm model.VMID, pm model.PMID) model.Placement {
		p := toPM0.Clone()
		p[vm] = pm
		return p
	}
	check := func(name string, apply func(model.Placement) error, schedules ...model.Placement) {
		for trial := 0; trial < 20; trial++ {
			for _, p := range schedules {
				before := snapshot(w)
				if err := apply(p); err == nil {
					t.Fatalf("%s accepted %v", name, p)
				}
				if !snapshot(w).equal(before) {
					t.Fatalf("%s: failed schedule %v changed the placement", name, p)
				}
			}
		}
	}
	unknownPM, unknownVM := bad(5, 99), bad(99, 0)
	check("PlaceInitial", w.PlaceInitial, unknownPM, unknownVM)
	if err := w.PlaceInitial(spread); err != nil {
		t.Fatal(err)
	}
	w.Step()
	// With PM 2 failed and PM 3 draining, moving VM 3 onto PM 2 or VM 5
	// onto PM 3 fails too.
	if err := w.FailPM(2); err != nil {
		t.Fatal(err)
	}
	if err := w.DrainPM(3); err != nil {
		t.Fatal(err)
	}
	check("ApplySchedule", w.ApplySchedule, unknownPM, unknownVM, bad(3, 2), bad(5, 3))
	checkPlacement(t, w)
}

// fuzzWorld builds a small World with every kind of slot and host: four
// PMs over two DCs, four static VMs, three admission slots. VMs 100 and
// 102 are admitted, 101 admitted and retired; PM 3 has failed and PM 2
// drains with VM 2 still on it.
func fuzzWorld(t testing.TB) *sim.World {
	t.Helper()
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
		Inventory:    inv,
		Topology:     network.PaperTopology(),
		Generator:    &stubLoad{rps: map[model.VMID]float64{0: 5, 1: 5, 100: 5}, cpuTime: 0.01},
		Seed:         3,
		ExtraVMSlots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PlaceInitial(model.Placement{0: 0, 1: 1, 2: 2, 3: 3}); err != nil {
		t.Fatal(err)
	}
	var hs []sim.VMHandle
	for _, id := range []model.VMID{100, 101, 102} {
		h, err := w.AdmitVM(dynSpec(id))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if err := w.ApplySchedule(model.Placement{100: 0, 101: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.RetireVM(hs[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.FailPM(3); err != nil {
		t.Fatal(err)
	}
	if err := w.DrainPM(2); err != nil {
		t.Fatal(err)
	}
	w.Step()
	return w
}

// FuzzApplySchedule applies arbitrary schedules to fuzzWorld. Each byte
// pair is one entry (a VM among live, retired and unknown IDs; a host
// among healthy, draining, failed and unknown PMs or NoPM); a 0xff byte
// ends one schedule and starts the next. After every call hostOf and the
// guest lists must agree and stay VMID-sorted; an error must change
// nothing; a success must move every listed VM, keep every other, and
// count as migrations exactly the VMs that went from one host to a
// different host plus the placed VMs the schedule leaves out (the known
// defect TestApplyScheduleChargesUnnamedVMs pins).
func FuzzApplySchedule(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 1, 3, 1, 4, 1, 6, 1}) // a full reshuffle
	f.Add([]byte{1, 1, 2, 2, 4, 0})                   // partial: VM 0 absent
	f.Add([]byte{0, 1, 1, 0, 2, 5})                   // unknown PM after valid entries
	f.Add([]byte{0, 1, 5, 0})                         // retired VM
	f.Add([]byte{0, 2, 0xff, 2, 2, 0xff, 2, 3})       // onto draining, stay, onto failed
	f.Add([]byte{0, 4, 1, 4, 0xff, 0, 0, 1, 1})       // evict, then re-place
	vmIDs := []model.VMID{0, 1, 2, 3, 100, 101, 102, 103, 999}
	pmIDs := []model.PMID{0, 1, 2, 3, model.NoPM, 99}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzWorld(t)
		p := model.Placement{}
		apply := func() {
			before := snapshot(w)
			err := w.ApplySchedule(p)
			checkPlacement(t, w)
			if err != nil {
				if !snapshot(w).equal(before) {
					t.Fatalf("failed schedule %v (%v) changed the placement", p, err)
				}
				p = model.Placement{}
				return
			}
			moved := 0
			for vm, pm := range p {
				i, _ := w.VMIndex(vm)
				old := before.hosts[i]
				if old >= 0 && pm != model.NoPM && w.PMSpecAt(old).ID != pm {
					moved++
				}
				if got := w.HostOf(vm); got != pm {
					t.Fatalf("VM %v on %v after a schedule naming %v", vm, got, pm)
				}
			}
			for i, old := range before.hosts {
				if w.ActiveVM(i) {
					if _, listed := p[w.VMSpecAt(i).ID]; !listed {
						if w.HostIndexOf(i) != old {
							t.Fatalf("unlisted slot %d moved from %d to %d", i, old, w.HostIndexOf(i))
						}
						if old >= 0 {
							moved++
						}
					}
				}
			}
			if got := w.TotalMigrations() - before.migrations; got != moved {
				t.Fatalf("schedule %v counted %d migrations, want %d", p, got, moved)
			}
			p = model.Placement{}
		}
		for k := 0; k < len(data); k++ {
			switch {
			case data[k] == 0xff:
				apply()
			case k+1 < len(data):
				p[vmIDs[int(data[k])%len(vmIDs)]] = pmIDs[int(data[k+1])%len(pmIDs)]
				k++
			}
		}
		apply()
	})
}
