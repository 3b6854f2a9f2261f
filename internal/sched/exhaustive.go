package sched

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Exhaustive is an exact solver that explores every feasible assignment.
// It stands in for the paper's MILP comparison: exact but infeasible
// beyond small instances — the paper reports GUROBI needing minutes for
// 10 jobs on 40 hosts, which is exactly the blow-up
// BenchmarkSchedulerScaling demonstrates.
//
// With Prune enabled it runs as branch-and-bound: an optimistic suffix
// bound cuts branches that cannot beat the incumbent. Without pruning it
// enumerates all hosts^VMs assignments, the raw cost an exact method pays
// when its relaxation bounds are weak.
type Exhaustive struct {
	Cost CostModel
	Est  Estimator
	// Prune enables the branch-and-bound optimistic bound.
	Prune bool
	// NodeBudget bounds the search to that many explored nodes; on expiry
	// the incumbent (always at least as good as Best-Fit's solution) is
	// returned. Counting nodes rather than wall-clock time keeps the
	// result and Nodes() independent of the machine. Zero means no limit.
	NodeBudget int64
	// nodes counts explored search nodes (exposed for the scaling bench).
	nodes int64
}

// Name implements Scheduler.
func (e *Exhaustive) Name() string { return "exhaustive" }

// Nodes returns the number of search nodes explored by the last call.
func (e *Exhaustive) Nodes() int64 { return e.nodes }

// Schedule implements Scheduler.
func (e *Exhaustive) Schedule(p *Problem) (model.Placement, error) {
	if len(p.Hosts) == 0 {
		return nil, fmt.Errorf("sched: no candidate hosts")
	}
	r, err := NewRound(p, e.Cost, e.Est)
	if err != nil {
		return nil, err
	}
	e.nodes = 0
	n := len(p.VMs)
	m := len(p.Hosts)

	// Keep a Best-Fit fallback so a budget expiry still returns a sane
	// plan; the search itself starts from scratch.
	bf := &BestFit{Cost: e.Cost, Est: e.Est}
	incumbentPlacement, err := bf.Schedule(p)
	if err != nil {
		return nil, err
	}
	bfScore := e.scorePlacement(p, incumbentPlacement)
	incumbent := math.Inf(-1)

	// Optimistic per-VM bound: the best profit any host could give the VM
	// on an empty round (capacity untouched). Profits computed against
	// fresh state can only be >= profits under load, so the bound is valid.
	fresh, err := NewRound(p, e.Cost, e.Est)
	if err != nil {
		return nil, err
	}
	optimistic := make([]float64, n)
	for i := 0; i < n; i++ {
		best := math.Inf(-1)
		for j := 0; j < m; j++ {
			if v := fresh.Profit(i, j); v > best {
				best = v
			}
		}
		optimistic[i] = best
	}
	// Suffix sums of the optimistic bounds.
	suffix := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + optimistic[i]
	}

	assign := make([]int, n)
	bestAssign := make([]int, n)
	haveBest := false
	var dfs func(i int, acc float64) bool // returns false on budget expiry
	dfs = func(i int, acc float64) bool {
		if e.NodeBudget > 0 && e.nodes >= e.NodeBudget {
			return false
		}
		e.nodes++
		if i == n {
			if acc > incumbent {
				incumbent = acc
				copy(bestAssign, assign)
				haveBest = true
			}
			return true
		}
		if e.Prune && acc+suffix[i] <= incumbent {
			return true // bound: cannot beat the incumbent
		}
		for j := 0; j < m; j++ {
			v := r.Profit(i, j)
			r.Assign(i, j)
			assign[i] = j
			ok := dfs(i+1, acc+v)
			r.Unassign(i, j)
			if !ok {
				return false
			}
		}
		return true
	}
	dfs(0, 0)

	if !haveBest || incumbent < bfScore {
		return incumbentPlacement, nil
	}
	out := make(model.Placement, n)
	for i := 0; i < n; i++ {
		out[p.VMs[i].Spec.ID] = r.HostID(bestAssign[i])
	}
	return out, nil
}

// scorePlacement evaluates a complete placement by replaying it through a
// fresh round in VM order.
func (e *Exhaustive) scorePlacement(p *Problem, placement model.Placement) float64 {
	r, err := NewRound(p, e.Cost, e.Est)
	if err != nil {
		return math.Inf(-1)
	}
	total := 0.0
	for i := range p.VMs {
		j, ok := r.HostIndex(placement[p.VMs[i].Spec.ID])
		if !ok {
			return math.Inf(-1)
		}
		total += r.Profit(i, j)
		r.Assign(i, j)
	}
	return total
}

var _ Scheduler = (*Exhaustive)(nil)
