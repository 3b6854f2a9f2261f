package sched

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/network"
)

// fakeEstimator gives tests full control over requirements and SLA.
type fakeEstimator struct {
	req    map[model.VMID]model.Resources
	sla    func(vm *VMInfo, grantCPU, memDef, lat float64) (float64, bool)
	pmBase float64
}

func (f *fakeEstimator) Name() string { return "fake" }

func (f *fakeEstimator) Required(vm *VMInfo, _ *Scratch) model.Resources {
	if r, ok := f.req[vm.Spec.ID]; ok {
		return r
	}
	return model.Resources{CPUPct: 50, MemMB: 256, BWMbps: 5}
}

func (f *fakeEstimator) SLA(vm *VMInfo, grantCPU, memDef, lat float64, _ *Scratch) (float64, bool) {
	if f.sla == nil {
		return 0, false
	}
	return f.sla(vm, grantCPU, memDef, lat)
}

func (f *fakeEstimator) VMCPUUsage(vm *VMInfo, grantCPU float64, s *Scratch) float64 {
	r := f.Required(vm, s)
	if r.CPUPct > grantCPU {
		return grantCPU
	}
	return r.CPUPct
}

func (f *fakeEstimator) PMCPU(nGuests int, sumCPU, sumRPS float64, _ *Scratch) float64 {
	if nGuests == 0 {
		return 0
	}
	return sumCPU + f.pmBase
}

func paperCost() CostModel {
	return NewCostModel(network.PaperTopology(), 1.0/6)
}

func mkVM(id int, homeDC int, rps float64, srcDC int) VMInfo {
	lv := make(model.LoadVector, 4)
	lv[srcDC] = model.Load{RPS: rps, BytesInReq: 500, BytesOutRq: 10_000, CPUTimeReq: 0.01}
	return VMInfo{
		Spec: model.VMSpec{
			ID: model.VMID(id), Name: "vm", ImageSizeGB: 4,
			BaseMemMB: 256, MaxMemMB: 1024,
			Terms: model.DefaultSLATerms, PriceEURh: 0.17,
			HomeDC: model.DCID(homeDC),
		},
		Load:      lv,
		Total:     lv.Total(),
		Current:   model.NoPM,
		CurrentDC: -1,
	}
}

func mkHost(id, dc int) HostInfo {
	return HostInfo{Spec: model.PMSpec{
		ID: model.PMID(id), DC: model.DCID(dc),
		Capacity: model.Resources{CPUPct: 400, MemMB: 4096, BWMbps: 1000},
		Cores:    4,
	}}
}

func TestBestFitPlacesNearLoad(t *testing.T) {
	// One VM with all clients in Barcelona (DC 2), hosts in all 4 DCs with
	// equal emptiness: latency should pull it to Barcelona.
	p := &Problem{
		VMs:   []VMInfo{mkVM(0, 0, 30, 2)},
		Hosts: []HostInfo{mkHost(0, 0), mkHost(1, 1), mkHost(2, 2), mkHost(3, 3)},
	}
	bf := NewBestFit(paperCost(), NewObserved())
	// No observations yet: estimator falls back to defaults, latency still
	// drives the choice.
	placement, err := bf.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if placement[0] != 2 {
		t.Fatalf("VM placed at %v, want Barcelona host 2", placement[0])
	}
}

func TestBestFitConsolidatesLightLoad(t *testing.T) {
	// Two light VMs, two hosts in the same DC: powering a second host
	// costs more than it buys, so both should land together.
	est := &fakeEstimator{req: map[model.VMID]model.Resources{
		0: {CPUPct: 60, MemMB: 300, BWMbps: 5},
		1: {CPUPct: 60, MemMB: 300, BWMbps: 5},
	}}
	p := &Problem{
		VMs:   []VMInfo{mkVM(0, 0, 10, 0), mkVM(1, 0, 10, 0)},
		Hosts: []HostInfo{mkHost(0, 0), mkHost(1, 0)},
	}
	bf := NewBestFit(paperCost(), est)
	placement, err := bf.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if placement[0] != placement[1] {
		t.Fatalf("light VMs not consolidated: %v", placement)
	}
}

func TestBestFitDeconsolidatesWhenSLASuffers(t *testing.T) {
	// Two VMs whose combined requirement exceeds one host; the SLA model
	// reports pain under starvation, so they must split across hosts.
	est := &fakeEstimator{
		req: map[model.VMID]model.Resources{
			0: {CPUPct: 300, MemMB: 800, BWMbps: 10},
			1: {CPUPct: 300, MemMB: 800, BWMbps: 10},
		},
		sla: func(vm *VMInfo, grantCPU, memDef, lat float64) (float64, bool) {
			need := 300.0
			frac := grantCPU / need
			if frac > 1 {
				frac = 1
			}
			return frac * vm.Spec.Terms.Fulfilment(0.05+lat), true
		},
	}
	p := &Problem{
		VMs:   []VMInfo{mkVM(0, 0, 40, 0), mkVM(1, 0, 40, 0)},
		Hosts: []HostInfo{mkHost(0, 0), mkHost(1, 0)},
	}
	bf := NewBestFit(paperCost(), est)
	placement, err := bf.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if placement[0] == placement[1] {
		t.Fatalf("heavy VMs not deconsolidated: %v", placement)
	}
}

func TestMigrationPenaltyKeepsVMHome(t *testing.T) {
	// A VM already on host 0; host 1 is in a DC with equal latency and
	// energy. Without a clear gain the migration penalty must keep it put.
	vm := mkVM(0, 0, 10, 0)
	vm.Current = 0
	vm.CurrentDC = 0
	est := &fakeEstimator{req: map[model.VMID]model.Resources{0: {CPUPct: 50, MemMB: 256, BWMbps: 5}}}
	p := &Problem{VMs: []VMInfo{vm}, Hosts: []HostInfo{mkHost(0, 0), mkHost(1, 0)}}
	bf := NewBestFit(paperCost(), est)
	placement, err := bf.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if placement[0] != 0 {
		t.Fatalf("VM migrated without benefit: %v", placement)
	}
}

func TestLatencyOnlyCostIgnoresEnergy(t *testing.T) {
	// Follow-the-load: host near the clients wins even if its electricity
	// is the most expensive (Barcelona, 0.1513).
	cost := paperCost()
	cost.LatencyOnly = true
	p := &Problem{
		VMs:   []VMInfo{mkVM(0, 0, 30, 2)},
		Hosts: []HostInfo{mkHost(0, 3), mkHost(1, 2)}, // Boston (cheap) vs Barcelona (near)
	}
	bf := NewBestFit(cost, NewObserved())
	placement, err := bf.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if placement[0] != 1 {
		t.Fatalf("latency-only did not follow the load: %v", placement)
	}
}

func TestEnergyPricePullsIdleLoadToCheapDC(t *testing.T) {
	// A VM with clients spread evenly: latency is a wash, so the cheaper
	// DC (Boston 0.1120 vs Barcelona 0.1513) should win.
	lv := make(model.LoadVector, 4)
	for i := range lv {
		lv[i] = model.Load{RPS: 2, BytesInReq: 500, BytesOutRq: 5000, CPUTimeReq: 0.005}
	}
	vm := VMInfo{
		Spec: model.VMSpec{
			ID: 0, ImageSizeGB: 4, BaseMemMB: 256, MaxMemMB: 1024,
			Terms:     model.SLATerms{RT0: 0.5, Alpha: 10}, // latency-insensitive contract
			PriceEURh: 0.17,
		},
		Load: lv, Total: lv.Total(), Current: model.NoPM, CurrentDC: -1,
	}
	est := &fakeEstimator{
		req: map[model.VMID]model.Resources{0: {CPUPct: 40, MemMB: 256, BWMbps: 2}},
		sla: func(v *VMInfo, g, m, lat float64) (float64, bool) { return 1, true },
	}
	p := &Problem{VMs: []VMInfo{vm}, Hosts: []HostInfo{mkHost(0, 2), mkHost(1, 3)}}
	bf := NewBestFit(paperCost(), est)
	placement, err := bf.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if placement[0] != 1 {
		t.Fatalf("energy price did not pull to Boston: %v", placement)
	}
}

func TestBestFitParallelMatchesSerial(t *testing.T) {
	vms := []VMInfo{
		mkVM(0, 0, 30, 0), mkVM(1, 1, 20, 1), mkVM(2, 2, 25, 2),
		mkVM(3, 3, 15, 3), mkVM(4, 0, 35, 1),
	}
	hosts := []HostInfo{mkHost(0, 0), mkHost(1, 1), mkHost(2, 2), mkHost(3, 3)}
	serial := NewBestFit(paperCost(), NewObserved())
	parallel := NewBestFit(paperCost(), NewObserved())
	parallel.Workers = 3
	ps, err := serial.Schedule(&Problem{VMs: vms, Hosts: hosts})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := parallel.Schedule(&Problem{VMs: vms, Hosts: hosts})
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Equal(pp) {
		t.Fatalf("parallel differs: %v vs %v", ps, pp)
	}
}

func TestBestFitNoHosts(t *testing.T) {
	bf := NewBestFit(paperCost(), NewObserved())
	if _, err := bf.Schedule(&Problem{VMs: []VMInfo{mkVM(0, 0, 1, 0)}}); err == nil {
		t.Fatal("accepted empty host list")
	}
}

func TestFixedScheduler(t *testing.T) {
	f := &Fixed{P: model.Placement{0: 3}}
	got, err := f.Schedule(&Problem{VMs: []VMInfo{mkVM(0, 0, 1, 0)}, Hosts: []HostInfo{mkHost(3, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 {
		t.Fatalf("Fixed = %v", got)
	}
	if _, err := f.Schedule(&Problem{VMs: []VMInfo{mkVM(9, 0, 1, 0)}}); err == nil {
		t.Fatal("Fixed accepted unknown VM")
	}
}

func TestExhaustiveAtLeastAsGoodAsBestFit(t *testing.T) {
	est := &fakeEstimator{
		req: map[model.VMID]model.Resources{
			0: {CPUPct: 250, MemMB: 700, BWMbps: 10},
			1: {CPUPct: 250, MemMB: 700, BWMbps: 10},
			2: {CPUPct: 120, MemMB: 400, BWMbps: 5},
		},
		sla: func(vm *VMInfo, grantCPU, memDef, lat float64) (float64, bool) {
			need := 120.0
			if vm.Spec.ID < 2 {
				need = 250
			}
			frac := grantCPU / need
			if frac > 1 {
				frac = 1
			}
			return frac * vm.Spec.Terms.Fulfilment(0.05+lat), true
		},
	}
	p := &Problem{
		VMs:   []VMInfo{mkVM(0, 0, 40, 0), mkVM(1, 0, 40, 0), mkVM(2, 0, 20, 0)},
		Hosts: []HostInfo{mkHost(0, 0), mkHost(1, 0), mkHost(2, 0)},
	}
	ex := &Exhaustive{Cost: paperCost(), Est: est}
	exP, err := ex.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	bf := NewBestFit(paperCost(), est)
	bfP, err := bf.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	exScore := ex.scorePlacement(p, exP)
	bfScore := ex.scorePlacement(p, bfP)
	if exScore < bfScore-1e-9 {
		t.Fatalf("exhaustive (%v) worse than best-fit (%v)", exScore, bfScore)
	}
	if ex.Nodes() == 0 {
		t.Fatal("exhaustive explored no nodes")
	}
}

func TestExhaustiveNoHosts(t *testing.T) {
	ex := &Exhaustive{Cost: paperCost(), Est: NewObserved()}
	if _, err := ex.Schedule(&Problem{VMs: []VMInfo{mkVM(0, 0, 1, 0)}}); err == nil {
		t.Fatal("accepted empty host list")
	}
}

func TestRoundAssignUnassignRestoresState(t *testing.T) {
	est := &fakeEstimator{req: map[model.VMID]model.Resources{
		0: {CPUPct: 100, MemMB: 500, BWMbps: 10},
	}}
	p := &Problem{VMs: []VMInfo{mkVM(0, 0, 10, 0)}, Hosts: []HostInfo{mkHost(0, 0)}}
	r, err := NewRound(p, paperCost(), est)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Profit(0, 0)
	r.Assign(0, 0)
	r.Unassign(0, 0)
	after := r.Profit(0, 0)
	if math.Abs(before-after) > 1e-12 {
		t.Fatalf("assign/unassign not reversible: %v vs %v", before, after)
	}
}

func TestUnassignRestoresClampedAvailability(t *testing.T) {
	// Regression: Assign clamps availability at zero, so when a
	// requirement exceeds what is left, the amount actually subtracted is
	// smaller than the requirement. The old Unassign added the full
	// requirement back, handing the branch-and-bound solver phantom
	// headroom. With the snapshot-based restore, a third VM must see
	// exactly the pre-assign state.
	est := &fakeEstimator{req: map[model.VMID]model.Resources{
		0: {CPUPct: 300, MemMB: 3000, BWMbps: 10},
		1: {CPUPct: 300, MemMB: 3000, BWMbps: 10}, // exceeds what VM0 leaves
		2: {CPUPct: 200, MemMB: 1000, BWMbps: 10},
	}}
	p := &Problem{
		VMs:   []VMInfo{mkVM(0, 0, 10, 0), mkVM(1, 0, 10, 0), mkVM(2, 0, 10, 0)},
		Hosts: []HostInfo{mkHost(0, 0)},
	}
	r, err := NewRound(p, paperCost(), est)
	if err != nil {
		t.Fatal(err)
	}
	r.Assign(0, 0) // leaves 100 CPU / 1096 MB
	before := r.Profit(2, 0)
	r.Assign(1, 0) // clamped: only the remainder is actually subtracted
	r.Unassign(1, 0)
	after := r.Profit(2, 0)
	if before != after {
		t.Fatalf("clamped assign/unassign not restored: profit %v -> %v", before, after)
	}
	// The phantom-headroom symptom of the old code: after the cycle, VM2
	// must still be scored against a partially-full host, not an empty one.
	fresh, err := NewRound(p, paperCost(), est)
	if err != nil {
		t.Fatal(err)
	}
	if emptyProfit := fresh.Profit(2, 0); emptyProfit == after {
		t.Fatalf("post-cycle profit equals empty-host profit %v: availability over-restored", emptyProfit)
	}
}

func TestObservedEstimatorSizing(t *testing.T) {
	o := NewObserved()
	vm := mkVM(0, 0, 10, 0)
	// No observations: falls back to defaults with the memory floor.
	r := o.Required(&vm, nil)
	if r.MemMB < vm.Spec.BaseMemMB {
		t.Fatalf("unobserved sizing below base mem: %v", r)
	}
	vm.Observed = model.Resources{CPUPct: 80, MemMB: 400, BWMbps: 8}
	vm.HasObserved = true
	r = o.Required(&vm, nil)
	if r != vm.Observed {
		t.Fatalf("observed sizing = %v", r)
	}
	ob := NewOverbooked()
	r2 := ob.Required(&vm, nil)
	if math.Abs(r2.CPUPct-160) > 1e-9 {
		t.Fatalf("overbooked CPU = %v, want 160", r2.CPUPct)
	}
	if _, ok := o.SLA(&vm, 100, 0, 0, nil); ok {
		t.Fatal("observed estimator should have no SLA model")
	}
}

func TestHeuristicSLA(t *testing.T) {
	vm := mkVM(0, 0, 10, 0)
	req := model.Resources{CPUPct: 100, MemMB: 256, BWMbps: 5}
	full := HeuristicSLA(&vm, req, req, 0)
	if full != 1 {
		t.Fatalf("fitting grant SLA = %v", full)
	}
	half := HeuristicSLA(&vm, req, model.Resources{CPUPct: 50, MemMB: 256, BWMbps: 5}, 0)
	if half >= full || math.Abs(half-0.25) > 1e-9 {
		t.Fatalf("half grant SLA = %v, want 0.25", half)
	}
	far := HeuristicSLA(&vm, req, req, 0.39)
	if far >= full {
		t.Fatalf("latency did not degrade SLA: %v", far)
	}
}

func TestCostModelValidate(t *testing.T) {
	c := CostModel{}
	if err := c.Validate(); err == nil {
		t.Fatal("accepted empty cost model")
	}
	c = NewCostModel(network.PaperTopology(), 0)
	if err := c.Validate(); err == nil {
		t.Fatal("accepted zero horizon")
	}
	if _, err := NewRound(&Problem{}, paperCost(), nil); err == nil {
		t.Fatal("accepted nil estimator")
	}
}
