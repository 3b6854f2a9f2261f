package sched_test

// Placement parity: the structure-of-arrays Round memoizes latencies, SLA
// estimates, energy prices and baseline watts, and the schedulers reuse
// rounds and scratch across calls. None of that may change a single
// decision. This file keeps a reference implementation with the
// pre-refactor shape — per-(VM,host) state behind pointers, every quantity
// recomputed from the estimator on every Profit call — and proves that
// profits are bit-identical pair by pair and that every scheduler
// (best-fit, overbooked best-fit, ML best-fit, exhaustive) emits exactly
// the same placement on problems derived from all scenario presets.
//
// The reference's Unassign tracks the actually-subtracted amount (the
// fixed semantics): the old Add(req) restoration was a bug with its own
// regression test in sched_test.go.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/sched"
)

const paritySeed = 7

// --- reference implementation (pre-refactor shape) ---

type refHost struct {
	info   sched.HostInfo
	avail  model.Resources
	guests int
	sumCPU float64
	sumRPS float64
}

type refRound struct {
	cost      sched.CostModel
	est       sched.Estimator
	vms       []sched.VMInfo
	req       []model.Resources
	prevAvail []model.Resources
	hosts     []*refHost
	tick      int
}

func newRefRound(p *sched.Problem, cost sched.CostModel, est sched.Estimator) *refRound {
	r := &refRound{cost: cost, est: est, vms: p.VMs, tick: p.Tick}
	var maxCap model.Resources
	for _, h := range p.Hosts {
		maxCap = maxCap.Max(h.Spec.Capacity)
	}
	r.req = make([]model.Resources, len(p.VMs))
	r.prevAvail = make([]model.Resources, len(p.VMs))
	for i := range p.VMs {
		req := est.Required(&p.VMs[i], nil).Max(model.Resources{})
		if len(p.Hosts) > 0 {
			req = req.Min(maxCap)
		}
		r.req[i] = req
	}
	r.hosts = make([]*refHost, len(p.Hosts))
	for j, h := range p.Hosts {
		r.hosts[j] = &refHost{
			info:   h,
			avail:  h.Spec.Capacity.Sub(h.Resident).Max(model.Resources{}),
			guests: h.ResidentGuests,
			sumCPU: h.ResidentCPUUsage,
			sumRPS: h.ResidentRPS,
		}
	}
	return r
}

func refMemDeficit(granted, required float64) float64 {
	if required <= 0 || granted >= required {
		return 0
	}
	if granted <= 0 {
		return 1
	}
	return (required - granted) / required
}

func refClamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// profit is the pre-refactor evaluation, verbatim: every latency, price,
// baseline wattage and prediction recomputed per call.
func (r *refRound) profit(i, j int) float64 {
	vm := &r.vms[i]
	host := r.hosts[j]
	req := r.req[i]
	hostDC := host.info.Spec.DC

	grant := req.Min(host.avail)
	grantCPU := grant.CPUPct
	memDeficit := refMemDeficit(grant.MemMB, req.MemMB)
	latency := r.cost.Top.MeanLatencyFrom(hostDC, vm.Load)

	var slaEst float64
	if r.cost.LatencyOnly {
		slaEst = vm.Spec.Terms.Fulfilment(vm.Spec.Terms.RT0/2 + latency)
	} else if v, ok := r.est.SLA(vm, grantCPU, memDeficit, latency, nil); ok {
		slaEst = v
	} else {
		slaEst = sched.HeuristicSLA(vm, req, grant, latency)
	}
	profit := vm.Spec.PriceEURh * slaEst * r.cost.HorizonHours

	if r.cost.EnergyAware && !r.cost.LatencyOnly {
		vmCPU := r.est.VMCPUUsage(vm, grantCPU, nil)
		newPM := r.est.PMCPU(host.guests+1, host.sumCPU+vmCPU, host.sumRPS+vm.Total.RPS, nil)
		newPM = refClamp(newPM, 0, host.info.Spec.Capacity.CPUPct)
		var wattsBefore float64
		if host.guests > 0 {
			prevPM := r.est.PMCPU(host.guests, host.sumCPU, host.sumRPS, nil)
			prevPM = refClamp(prevPM, 0, host.info.Spec.Capacity.CPUPct)
			wattsBefore = power.FacilityWatts(prevPM)
		}
		wattsAfter := power.FacilityWatts(newPM)
		marginal := wattsAfter - wattsBefore
		profit -= power.EnergyEUR(marginal, r.cost.HorizonHours, r.cost.Top.EnergyPriceAt(hostDC, r.tick))
	}

	if r.cost.MigrationAware && vm.Current != model.NoPM && vm.Current != host.info.Spec.ID {
		down := r.cost.Top.MigrationDuration(vm.Spec.ImageSizeGB, vm.CurrentDC, hostDC)
		profit -= 2 * vm.Spec.PriceEURh * down / 3600
	}
	return profit
}

func (r *refRound) assign(i, j int) {
	host := r.hosts[j]
	r.prevAvail[i] = host.avail
	host.avail = host.avail.Sub(r.req[i]).Max(model.Resources{})
	host.sumCPU += r.est.VMCPUUsage(&r.vms[i], r.req[i].CPUPct, nil)
	host.sumRPS += r.vms[i].Total.RPS
	host.guests++
}

func (r *refRound) unassign(i, j int) {
	host := r.hosts[j]
	host.avail = r.prevAvail[i]
	host.sumCPU -= r.est.VMCPUUsage(&r.vms[i], r.req[i].CPUPct, nil)
	host.sumRPS -= r.vms[i].Total.RPS
	host.guests--
}

// refBestFit is the pre-refactor Algorithm 1 loop over the reference round.
func refBestFit(p *sched.Problem, cost sched.CostModel, est sched.Estimator, minGain float64) model.Placement {
	r := newRefRound(p, cost, est)
	ref := p.Hosts[0].Spec.Capacity
	order := make([]int, len(p.VMs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return r.req[order[a]].Dominant(ref) > r.req[order[b]].Dominant(ref)
	})
	placement := make(model.Placement, len(p.VMs))
	scores := make([]float64, len(p.Hosts))
	hostIdx := make(map[model.PMID]int, len(p.Hosts))
	for j := range p.Hosts {
		hostIdx[p.Hosts[j].Spec.ID] = j
	}
	for _, i := range order {
		for j := range p.Hosts {
			scores[j] = r.profit(i, j)
		}
		best := 0
		for j := 1; j < len(scores); j++ {
			if scores[j] > scores[best] {
				best = j
			}
		}
		if cur, ok := hostIdx[p.VMs[i].Current]; ok && best != cur &&
			scores[best] < scores[cur]+minGain {
			best = cur
		}
		r.assign(i, best)
		placement[p.VMs[i].Spec.ID] = r.hosts[best].info.Spec.ID
	}
	return placement
}

// refExhaustive is the pre-refactor branch-and-bound over the reference
// round (no budget), including the Best-Fit incumbent fallback.
func refExhaustive(p *sched.Problem, cost sched.CostModel, est sched.Estimator) model.Placement {
	r := newRefRound(p, cost, est)
	n, m := len(p.VMs), len(p.Hosts)

	// The solver's incumbent Best-Fit is built bare (no hysteresis).
	bfPlacement := refBestFit(p, cost, est, 0)
	bfScore := refScore(p, cost, est, bfPlacement)
	incumbent := math.Inf(-1)

	fresh := newRefRound(p, cost, est)
	optimistic := make([]float64, n)
	for i := 0; i < n; i++ {
		best := math.Inf(-1)
		for j := 0; j < m; j++ {
			if v := fresh.profit(i, j); v > best {
				best = v
			}
		}
		optimistic[i] = best
	}
	suffix := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + optimistic[i]
	}

	assign := make([]int, n)
	bestAssign := make([]int, n)
	haveBest := false
	var dfs func(i int, acc float64)
	dfs = func(i int, acc float64) {
		if i == n {
			if acc > incumbent {
				incumbent = acc
				copy(bestAssign, assign)
				haveBest = true
			}
			return
		}
		if acc+suffix[i] <= incumbent {
			return
		}
		for j := 0; j < m; j++ {
			v := r.profit(i, j)
			r.assign(i, j)
			assign[i] = j
			dfs(i+1, acc+v)
			r.unassign(i, j)
		}
	}
	dfs(0, 0)

	if !haveBest || incumbent < bfScore {
		return bfPlacement
	}
	out := make(model.Placement, n)
	for i := 0; i < n; i++ {
		out[p.VMs[i].Spec.ID] = r.hosts[bestAssign[i]].info.Spec.ID
	}
	return out
}

func refScore(p *sched.Problem, cost sched.CostModel, est sched.Estimator, placement model.Placement) float64 {
	r := newRefRound(p, cost, est)
	hostIdx := make(map[model.PMID]int, len(p.Hosts))
	for j := range p.Hosts {
		hostIdx[p.Hosts[j].Spec.ID] = j
	}
	total := 0.0
	for i := range p.VMs {
		j, ok := hostIdx[placement[p.VMs[i].Spec.ID]]
		if !ok {
			return math.Inf(-1)
		}
		total += r.profit(i, j)
		r.assign(i, j)
	}
	return total
}

// --- problem construction from presets ---

// presetProblem builds a realistic mid-run scheduling problem from a
// preset: initial placement, a dozen ticks of monitored history, then the
// manager's own problem assembly.
func presetProblem(t *testing.T, name string, seed uint64) *sched.Problem {
	t.Helper()
	sc, err := scenario.Build(scenario.MustPreset(name, seed))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	mgr, err := core.NewManager(core.ManagerConfig{
		World:     sc.World,
		Scheduler: &sched.Fixed{P: sc.HomePlacement()},
		// No scheduling rounds during warm-up: only monitoring history.
		RoundTicks: 1 << 30,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := mgr.Run(15, nil); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	p := mgr.BuildProblem()
	if len(p.VMs) == 0 || len(p.Hosts) == 0 {
		t.Fatalf("%s: empty problem", name)
	}
	return p
}

func parityCost(t *testing.T, name string, seed uint64) sched.CostModel {
	t.Helper()
	sc, err := scenario.Build(scenario.MustPreset(name, seed))
	if err != nil {
		t.Fatal(err)
	}
	return sched.NewCostModel(sc.Topology, 1.0/6)
}

// --- the parity suites ---

// TestProfitParityAllPresets proves the memoized Round reproduces the
// reference profit bit-for-bit for every (VM, host) pair on every preset,
// on fresh state and again after assignments.
func TestProfitParityAllPresets(t *testing.T) {
	bundle, err := experiments.TrainedBundle(paritySeed)
	if err != nil {
		t.Fatal(err)
	}
	ests := []sched.Estimator{sched.NewObserved(), sched.NewOverbooked(), sched.NewML(bundle)}
	for _, name := range scenario.Names() {
		p := presetProblem(t, name, paritySeed)
		cost := parityCost(t, name, paritySeed)
		for _, est := range ests {
			round, err := sched.NewRound(p, cost, est)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, est.Name(), err)
			}
			ref := newRefRound(p, cost, est)
			check := func(stage string) {
				for i := 0; i < len(p.VMs); i++ {
					for j := 0; j < len(p.Hosts); j++ {
						got, want := round.Profit(i, j), ref.profit(i, j)
						if got != want {
							t.Fatalf("%s/%s %s: profit(%d,%d) = %v, reference %v",
								name, est.Name(), stage, i, j, got, want)
						}
					}
				}
			}
			check("fresh")
			// Exercise the tentative-state updates, including clamped
			// assignments, then re-check every pair.
			for i := 0; i < len(p.VMs); i++ {
				j := i % len(p.Hosts)
				round.Assign(i, j)
				ref.assign(i, j)
			}
			check("loaded")
			// And unwound state (reverse order, as the solver does).
			for i := len(p.VMs) - 1; i >= 0; i-- {
				j := i % len(p.Hosts)
				round.Unassign(i, j)
				ref.unassign(i, j)
			}
			check("unwound")
		}
	}
}

// TestPlacementParityAllPresets proves every scheduler's placements are
// bit-identical to the reference implementation across all presets, that
// reused scheduler instances keep emitting the same answer, and that
// parallel candidate evaluation matches serial.
func TestPlacementParityAllPresets(t *testing.T) {
	bundle, err := experiments.TrainedBundle(paritySeed)
	if err != nil {
		t.Fatal(err)
	}
	ests := []sched.Estimator{sched.NewObserved(), sched.NewOverbooked(), sched.NewML(bundle)}
	for _, name := range scenario.Names() {
		p := presetProblem(t, name, paritySeed)
		cost := parityCost(t, name, paritySeed)

		for _, est := range ests {
			want := refBestFit(p, cost, est, sched.DefaultMinGainEUR)
			bf := sched.NewBestFit(cost, est)
			for pass := 0; pass < 2; pass++ { // fresh and reused state
				got, err := bf.Schedule(p)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, est.Name(), err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s/%s pass %d: best-fit diverged from reference\n got %v\nwant %v",
						name, est.Name(), pass, got, want)
				}
			}
			par := sched.NewBestFit(cost, est)
			par.Workers = 3
			got, err := par.Schedule(p)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, est.Name(), err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s/%s: parallel best-fit diverged from reference", name, est.Name())
			}
		}

		// Exhaustive on a trimmed instance (hosts^VMs bounded) with the
		// monitored estimator, pruning on.
		trimmed := &sched.Problem{VMs: p.VMs, Hosts: p.Hosts, Tick: p.Tick}
		if len(trimmed.VMs) > 5 {
			trimmed.VMs = trimmed.VMs[:5]
		}
		if len(trimmed.Hosts) > 4 {
			trimmed.Hosts = trimmed.Hosts[:4]
		}
		est := sched.NewObserved()
		want := refExhaustive(trimmed, cost, est)
		ex := &sched.Exhaustive{Cost: cost, Est: est, Prune: true}
		got, err := ex.Schedule(trimmed)
		if err != nil {
			t.Fatalf("%s/exhaustive: %v", name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s/exhaustive diverged from reference\n got %v\nwant %v", name, got, want)
		}
	}
}

// churnedProblem derives a successor-round problem from p: some VMs gone,
// some brand-new, some with perturbed load and placement — the shape the
// dynamic workload produces, with every surviving VM's index shifted.
func churnedProblem(p *sched.Problem) *sched.Problem {
	out := &sched.Problem{Hosts: p.Hosts, Tick: p.Tick + 1}
	var maxID model.VMID
	for i := range p.VMs {
		if p.VMs[i].Spec.ID > maxID {
			maxID = p.VMs[i].Spec.ID
		}
	}
	// Drop the first few VMs (departures shift all later indices).
	drop := 3
	if drop > len(p.VMs)/2 {
		drop = len(p.VMs) / 2
	}
	for i := drop; i < len(p.VMs); i++ {
		vm := p.VMs[i] // copy
		if i%3 == 0 {
			// Perturbed load: deep-copy the vector so the original problem
			// stays untouched, then rescale and recompute the total.
			lv := make(model.LoadVector, len(vm.Load))
			copy(lv, vm.Load)
			for k := range lv {
				lv[k].RPS *= 1.17
			}
			vm.Load = lv
			vm.Total = lv.Total()
			vm.QueueLen += 5
		}
		if i%5 == 0 {
			// Moved elsewhere since last round.
			vm.Current = p.Hosts[i%len(p.Hosts)].Spec.ID
			vm.CurrentDC = p.Hosts[i%len(p.Hosts)].Spec.DC
		}
		out.VMs = append(out.VMs, vm)
	}
	// Arrivals: new identities, entering unplaced.
	for n := 0; n < 4 && n < len(p.VMs); n++ {
		vm := p.VMs[n]
		vm.Spec.ID = maxID + 1 + model.VMID(n)
		vm.Current = model.NoPM
		vm.CurrentDC = -1
		vm.HasObserved = false
		out.VMs = append(out.VMs, vm)
	}
	return out
}

// failCycleProblems derives the three successor problems a host fault
// cycle produces from a mid-run problem: the crash round (victim host
// gone, its guests homeless), the re-home round (victims current on a
// survivor), and the recovery round (victim host back as a candidate,
// same order as the original).
func failCycleProblems(p *sched.Problem) (failed, rehomed, recovered *sched.Problem) {
	victim := p.VMs[0].Current
	var hosts []sched.HostInfo
	for _, h := range p.Hosts {
		if h.Spec.ID != victim {
			hosts = append(hosts, h)
		}
	}
	survivor := hosts[0].Spec
	stage := func(tick int, hs []sched.HostInfo, cur model.PMID, curDC model.DCID) *sched.Problem {
		out := &sched.Problem{Hosts: hs, Tick: tick}
		for _, vm := range p.VMs {
			if vm.Current == victim {
				vm.Current = cur
				vm.CurrentDC = curDC
			}
			out.VMs = append(out.VMs, vm)
		}
		return out
	}
	failed = stage(p.Tick+1, hosts, model.NoPM, -1)
	rehomed = stage(p.Tick+2, hosts, survivor.ID, survivor.DC)
	recovered = stage(p.Tick+3, p.Hosts, survivor.ID, survivor.DC)
	return failed, rehomed, recovered
}
