package sched

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// Classical bin-packing heuristics beyond Ordered Best-Fit. The paper's
// prior work found Best-Fit to "perform better among greedy classical
// ad-hoc and heuristics"; these baselines let the claim be re-measured
// (see the `heuristics` experiment).

// FirstFit places each VM on the first host with room for its estimated
// requirement, in host order — the classic one-pass packer. It never
// weighs profit, so energy prices and latency are invisible to it.
type FirstFit struct {
	Est Estimator
}

// Name implements Scheduler.
func (f *FirstFit) Name() string { return "firstfit" }

// Schedule implements Scheduler.
func (f *FirstFit) Schedule(p *Problem) (model.Placement, error) {
	return orderedPack(p, f.Est, "FirstFit", func(req model.Resources, avail []model.Resources) int {
		for j := range avail {
			if req.FitsIn(avail[j]) {
				return j
			}
		}
		// Nothing fits: overflow onto the emptiest host.
		chosen := 0
		for j := 1; j < len(avail); j++ {
			if avail[j].CPUPct > avail[chosen].CPUPct {
				chosen = j
			}
		}
		return chosen
	})
}

// RoundRobin deals VMs across hosts in rotation — the load-balancing
// baseline that maximally spreads (and therefore maximally burns energy).
type RoundRobin struct{}

// Name implements Scheduler.
func (RoundRobin) Name() string { return "roundrobin" }

// Schedule implements Scheduler.
func (RoundRobin) Schedule(p *Problem) (model.Placement, error) {
	if len(p.Hosts) == 0 {
		return nil, fmt.Errorf("sched: no candidate hosts")
	}
	placement := make(model.Placement, len(p.VMs))
	for i := range p.VMs {
		placement[p.VMs[i].Spec.ID] = p.Hosts[i%len(p.Hosts)].Spec.ID
	}
	return placement, nil
}

// WorstFit places each VM on the host with the most free CPU after its
// requirement — the anti-consolidation packer, good SLA, terrible energy.
type WorstFit struct {
	Est Estimator
}

// Name implements Scheduler.
func (w *WorstFit) Name() string { return "worstfit" }

// Schedule implements Scheduler.
func (w *WorstFit) Schedule(p *Problem) (model.Placement, error) {
	return orderedPack(p, w.Est, "WorstFit", func(req model.Resources, avail []model.Resources) int {
		chosen := 0
		bestFree := -1.0
		for j := range avail {
			if free := avail[j].Sub(req).CPUPct; free > bestFree {
				bestFree = free
				chosen = j
			}
		}
		return chosen
	})
}

// orderedPack is the one-pass packer FirstFit and WorstFit share: VMs in
// descending dominant demand (stable, like the paper's ordered variants),
// each placed on the host choose picks given its estimated requirement
// and every host's remaining capacity, which then shrinks by it.
func orderedPack(p *Problem, est Estimator, kind string,
	choose func(req model.Resources, avail []model.Resources) int) (model.Placement, error) {
	if len(p.Hosts) == 0 {
		return nil, fmt.Errorf("sched: no candidate hosts")
	}
	if est == nil {
		return nil, fmt.Errorf("sched: %s needs an estimator", kind)
	}
	avail := make([]model.Resources, len(p.Hosts))
	for j, h := range p.Hosts {
		avail[j] = h.Spec.Capacity.Sub(h.Resident).Max(model.Resources{})
	}
	var s Scratch
	ref := p.Hosts[0].Spec.Capacity
	reqs := make([]model.Resources, len(p.VMs))
	order := make([]int, len(p.VMs))
	for i := range p.VMs {
		reqs[i] = est.Required(&p.VMs[i], &s).Max(model.Resources{}).Min(ref)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return reqs[order[a]].Dominant(ref) > reqs[order[b]].Dominant(ref)
	})
	placement := make(model.Placement, len(p.VMs))
	for _, i := range order {
		chosen := choose(reqs[i], avail)
		avail[chosen] = avail[chosen].Sub(reqs[i]).Max(model.Resources{})
		placement[p.VMs[i].Spec.ID] = p.Hosts[chosen].Spec.ID
	}
	return placement, nil
}

var (
	_ Scheduler = (*FirstFit)(nil)
	_ Scheduler = RoundRobin{}
	_ Scheduler = (*WorstFit)(nil)
)
