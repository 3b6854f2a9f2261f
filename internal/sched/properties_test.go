package sched

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
)

// TestProfitAlwaysFiniteProperty fuzzes loads and requirements: the profit
// of any tentative assignment must be a finite number — NaNs or infinities
// here would silently corrupt every scheduling decision.
func TestProfitAlwaysFiniteProperty(t *testing.T) {
	f := func(rps, cpuTime, reqCPU, reqMem uint16, srcRaw uint8) bool {
		src := int(srcRaw) % 4
		vm := mkVM(0, 0, float64(rps%500), src)
		vm.Load[src].CPUTimeReq = float64(cpuTime%100) / 1000
		vm.Total = vm.Load.Total()
		est := &fakeEstimator{req: map[model.VMID]model.Resources{
			0: {
				CPUPct: float64(reqCPU % 2000),
				MemMB:  float64(reqMem % 10000),
				BWMbps: float64(reqCPU % 500),
			},
		}}
		p := &Problem{VMs: []VMInfo{vm}, Hosts: []HostInfo{mkHost(0, 0), mkHost(1, 2)}}
		r, err := NewRound(p, paperCost(), est)
		if err != nil {
			return false
		}
		for j := 0; j < 2; j++ {
			v := r.Profit(0, j)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Logf("non-finite profit %v for rps=%d req=%d", v, rps, reqCPU)
				return false
			}
			// One round's profit is bounded by one round's revenue.
			if v > vm.Spec.PriceEURh*r.cost.HorizonHours+1e-9 {
				t.Logf("profit %v above revenue ceiling", v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBestFitAlwaysPlacesEveryVMProperty: regardless of demands, Best-Fit
// returns a complete placement onto real hosts.
func TestBestFitAlwaysPlacesEveryVMProperty(t *testing.T) {
	f := func(seeds []uint16) bool {
		if len(seeds) == 0 || len(seeds) > 12 {
			return true
		}
		var vms []VMInfo
		est := &fakeEstimator{req: map[model.VMID]model.Resources{}}
		for i, s := range seeds {
			vm := mkVM(i, int(s)%4, float64(s%300), int(s)%4)
			vms = append(vms, vm)
			est.req[vm.Spec.ID] = model.Resources{
				CPUPct: float64(s % 900),
				MemMB:  float64(s%4000) + 64,
				BWMbps: float64(s % 200),
			}
		}
		hosts := []HostInfo{mkHost(0, 0), mkHost(1, 1), mkHost(2, 2)}
		bf := NewBestFit(paperCost(), est)
		placement, err := bf.Schedule(&Problem{VMs: vms, Hosts: hosts})
		if err != nil {
			return false
		}
		if len(placement) != len(vms) {
			return false
		}
		valid := map[model.PMID]bool{0: true, 1: true, 2: true}
		for _, pm := range placement {
			if !valid[pm] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// budgetProblem is an instance far too large to enumerate: 12 VMs on 8
// hosts is 8^12 ≈ 69G leaves.
func budgetProblem() (*Problem, *fakeEstimator) {
	var vms []VMInfo
	est := &fakeEstimator{req: map[model.VMID]model.Resources{}}
	for i := 0; i < 12; i++ {
		vm := mkVM(i, i%4, 20, i%4)
		vms = append(vms, vm)
		est.req[vm.Spec.ID] = model.Resources{CPUPct: 60, MemMB: 300, BWMbps: 5}
	}
	var hosts []HostInfo
	for j := 0; j < 8; j++ {
		hosts = append(hosts, mkHost(j, j%4))
	}
	return &Problem{VMs: vms, Hosts: hosts}, est
}

// TestExhaustiveBudgetExpiryFallsBack: with an absurd instance and a small
// node budget, the solver must stop at exactly the budget and return a
// complete placement (the incumbent or the Best-Fit fallback) promptly
// instead of hanging.
func TestExhaustiveBudgetExpiryFallsBack(t *testing.T) {
	p, est := budgetProblem()
	const budget = 5000
	ex := &Exhaustive{Cost: paperCost(), Est: est, NodeBudget: budget}
	start := time.Now()
	placement, err := ex.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("budget ignored: took %v", time.Since(start))
	}
	if ex.Nodes() != budget {
		t.Fatalf("explored %d nodes, budget %d", ex.Nodes(), budget)
	}
	if len(placement) != len(p.VMs) {
		t.Fatalf("fallback placement incomplete: %d/%d", len(placement), len(p.VMs))
	}
}

// TestExhaustiveNodeBudgetDeterministic: the budget counts nodes, not
// time, so two runs that hit it — plain enumeration and branch-and-bound
// alike — explore the same number of nodes and return the same placement.
func TestExhaustiveNodeBudgetDeterministic(t *testing.T) {
	for _, tc := range []struct {
		prune  bool
		budget int64
	}{{false, 20000}, {true, 500}} { // branch-and-bound finishes this one in 913
		p, est := budgetProblem()
		var nodes []int64
		var placements []model.Placement
		for run := 0; run < 2; run++ {
			ex := &Exhaustive{Cost: paperCost(), Est: est, Prune: tc.prune, NodeBudget: tc.budget}
			placement, err := ex.Schedule(p)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, ex.Nodes())
			placements = append(placements, placement)
		}
		if nodes[0] != tc.budget {
			t.Fatalf("prune=%v: explored %d nodes, want the whole budget of %d", tc.prune, nodes[0], tc.budget)
		}
		if nodes[0] != nodes[1] || !placements[0].Equal(placements[1]) {
			t.Fatalf("prune=%v: runs differ: %d vs %d nodes, placements %v vs %v",
				tc.prune, nodes[0], nodes[1], placements[0], placements[1])
		}
	}
}

// TestExhaustivePruningPreservesOptimum: with and without the bound the
// solver must find equally good solutions.
func TestExhaustivePruningPreservesOptimum(t *testing.T) {
	est := &fakeEstimator{req: map[model.VMID]model.Resources{
		0: {CPUPct: 250, MemMB: 600, BWMbps: 10},
		1: {CPUPct: 200, MemMB: 500, BWMbps: 8},
		2: {CPUPct: 150, MemMB: 400, BWMbps: 6},
		3: {CPUPct: 100, MemMB: 300, BWMbps: 4},
	}}
	mk := func() *Problem {
		return &Problem{
			VMs:   []VMInfo{mkVM(0, 0, 40, 0), mkVM(1, 1, 30, 1), mkVM(2, 2, 20, 2), mkVM(3, 3, 10, 3)},
			Hosts: []HostInfo{mkHost(0, 0), mkHost(1, 1), mkHost(2, 2)},
		}
	}
	raw := &Exhaustive{Cost: paperCost(), Est: est}
	pruned := &Exhaustive{Cost: paperCost(), Est: est, Prune: true}
	rawP, err := raw.Schedule(mk())
	if err != nil {
		t.Fatal(err)
	}
	prunedP, err := pruned.Schedule(mk())
	if err != nil {
		t.Fatal(err)
	}
	rawScore := raw.scorePlacement(mk(), rawP)
	prunedScore := pruned.scorePlacement(mk(), prunedP)
	if math.Abs(rawScore-prunedScore) > 1e-9 {
		t.Fatalf("pruning changed the optimum: %v vs %v", prunedScore, rawScore)
	}
	if pruned.Nodes() >= raw.Nodes() {
		t.Fatalf("pruning explored as much as enumeration: %d vs %d", pruned.Nodes(), raw.Nodes())
	}
}
