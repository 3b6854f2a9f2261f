package sweep

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// DefaultRoundTicks is the scheduling period used across sweeps and
// experiments (the paper's 10-minute round).
const DefaultRoundTicks = 10

// HorizonHours is the profit horizon of one scheduling round.
const HorizonHours = float64(DefaultRoundTicks) / 60

// CostModel builds the standard Figure 3 objective for a scenario.
func CostModel(sc *scenario.Scenario) sched.CostModel {
	return sched.NewCostModel(sc.Topology, HorizonHours)
}

// ParallelBestFit builds the ML Best-Fit with concurrent candidate
// evaluation — the configuration large-fleet runs use so the decision
// round rides all cores. Placements are bit-identical to the serial
// scheduler (asserted by TestParallelMatchesSerialHeteroFleet and the
// sched parity suite).
func ParallelBestFit(cost sched.CostModel, est sched.Estimator) *sched.BestFit {
	bf := sched.NewBestFit(cost, est)
	bf.Workers = par.DefaultWorkers()
	return bf
}

// Policy is a named scheduler factory — one axis of the sweep matrix.
// Make is called once per cell on that cell's freshly built scenario, so
// a policy may read the fleet (topology, inventory) but shares nothing
// between cells except the read-only predictor bundle.
type Policy struct {
	// Name labels the policy in cells, aggregates and reports.
	Name string
	// NeedsBundle marks policies whose scheduler consumes trained
	// predictors; the sweep trains one bundle per seed and shares it
	// across that seed's cells.
	NeedsBundle bool
	// Make builds the scheduler for one cell. bundle is the seed's
	// trained bundle — guaranteed non-nil when NeedsBundle is set, but
	// possibly non-nil even without it (matrices train once for all
	// policies of a seed), so gate ML behaviour on NeedsBundle, never on
	// bundle != nil.
	Make func(sc *scenario.Scenario, bundle *predict.Bundle) (sched.Scheduler, error)
	// Initial computes the starting placement for a cell; nil means
	// HomePlacement (every VM on a host of its home DC).
	Initial func(sc *scenario.Scenario) model.Placement
}

// policies is the built-in registry, keyed by CLI-friendly names.
var policies = map[string]Policy{
	"bf": {
		Name: "bf",
		Make: func(sc *scenario.Scenario, _ *predict.Bundle) (sched.Scheduler, error) {
			return sched.NewBestFit(CostModel(sc), sched.NewObserved()), nil
		},
	},
	"bf-ob": {
		Name: "bf-ob",
		Make: func(sc *scenario.Scenario, _ *predict.Bundle) (sched.Scheduler, error) {
			return sched.NewBestFit(CostModel(sc), sched.NewOverbooked()), nil
		},
	},
	"bf-ml": {
		Name: "bf-ml", NeedsBundle: true,
		Make: func(sc *scenario.Scenario, b *predict.Bundle) (sched.Scheduler, error) {
			return sched.NewBestFit(CostModel(sc), sched.NewML(b)), nil
		},
	},
	// bf-ml-prune scores only one candidate host per distinct tentative
	// host state (plus each VM's current host) instead of the whole fleet.
	// At the safe bound (PruneK 0, used here) placements are bit-identical
	// to bf-ml — asserted by TestPruneParityAllPresets — while the
	// candidates_scored sweep column shows the scoring-matrix cut. Fleet-
	// scale runs (hyperscale) set PruneK > 0 on top for bounded rounds,
	// trading disclosed truncation (shortlist_truncated) for work.
	"bf-ml-prune": {
		Name: "bf-ml-prune", NeedsBundle: true,
		Make: func(sc *scenario.Scenario, b *predict.Bundle) (sched.Scheduler, error) {
			bf := sched.NewBestFit(CostModel(sc), sched.NewML(b))
			bf.Prune = true
			return bf, nil
		},
	},
	"firstfit": {
		Name: "firstfit", NeedsBundle: true,
		Make: func(_ *scenario.Scenario, b *predict.Bundle) (sched.Scheduler, error) {
			return &sched.FirstFit{Est: sched.NewML(b)}, nil
		},
	},
	"worstfit": {
		Name: "worstfit", NeedsBundle: true,
		Make: func(_ *scenario.Scenario, b *predict.Bundle) (sched.Scheduler, error) {
			return &sched.WorstFit{Est: sched.NewML(b)}, nil
		},
	},
	"roundrobin": {
		Name: "roundrobin",
		Make: func(*scenario.Scenario, *predict.Bundle) (sched.Scheduler, error) {
			return sched.RoundRobin{}, nil
		},
	},
	"static": {
		Name: "static",
		Make: func(sc *scenario.Scenario, _ *predict.Bundle) (sched.Scheduler, error) {
			// Churn arrivals are unknowable to a static placement; under
			// churn they stay wherever they are (i.e. unplaced) — the
			// baseline's weakness, not a configuration error.
			return &sched.Fixed{P: sc.HomePlacement(), AllowUnknown: sc.Script != nil}, nil
		},
	},
	"hier-ob": {
		Name: "hier-ob",
		Make: func(sc *scenario.Scenario, _ *predict.Bundle) (sched.Scheduler, error) {
			return core.NewHierarchical(sc.Inventory, CostModel(sc), sched.NewOverbooked()), nil
		},
	},
	"hier-ml": {
		Name: "hier-ml", NeedsBundle: true,
		Make: func(sc *scenario.Scenario, b *predict.Bundle) (sched.Scheduler, error) {
			return core.NewHierarchical(sc.Inventory, CostModel(sc), sched.NewML(b)), nil
		},
	},
}

// PolicyNames lists the registered policy names in stable order.
func PolicyNames() []string {
	out := make([]string, 0, len(policies))
	for name := range policies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PolicyByName resolves one registered policy.
func PolicyByName(name string) (Policy, error) {
	p, ok := policies[name]
	if !ok {
		return Policy{}, fmt.Errorf("sweep: unknown policy %q (have %v)", name, PolicyNames())
	}
	return p, nil
}
