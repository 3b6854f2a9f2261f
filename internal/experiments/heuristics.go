package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sweep"
)

// Heuristics re-measures the claim inherited from the authors' prior work
// ("Best-Fit performs better among greedy classical ad-hoc and
// heuristics"): the profit-driven Ordered Best-Fit against First-Fit,
// Worst-Fit and Round-Robin on the intra-DC consolidation scenario. Each
// policy is one sweep cell over the intra-dc preset.
func Heuristics(seed uint64) (*Result, error) {
	spec := scenario.MustPreset(scenario.IntraDC, seed)
	ticks := model.TicksPerDay
	bundle, err := TrainedBundle(seed)
	if err != nil {
		return nil, err
	}
	initial := func(sc *scenario.Scenario) model.Placement { return sc.PileOn(0) }
	policies := []sweep.Policy{
		registered("roundrobin", "RoundRobin", initial),
		registered("firstfit", "FirstFit", initial),
		registered("worstfit", "WorstFit", initial),
		registered("bf-ml", "BestFit+ML", initial),
		{Name: "BestFit+ML-par", Initial: initial, NeedsBundle: true,
			Make: func(sc *scenario.Scenario, b *predict.Bundle) (sched.Scheduler, error) {
				return sweep.ParallelBestFit(sweep.CostModel(sc), sched.NewML(b)), nil
			}},
	}
	res := &Result{Name: "Heuristics", Metrics: map[string]float64{}}
	var runs []*sweep.PolicyRun
	for _, pol := range policies {
		run, err := sweep.RunSpec(spec, pol, bundle, ticks, sweep.RunOpts{})
		if err != nil {
			return nil, fmt.Errorf("heuristics %s: %w", pol.Name, err)
		}
		runs = append(runs, run)
		res.Metrics["profit:"+pol.Name] = run.ProfitEURh
		res.Metrics["sla:"+pol.Name] = run.AvgSLA
		res.Metrics["watts:"+pol.Name] = run.AvgWatts
	}
	res.Tables = append(res.Tables, summaryTable(
		"Classical heuristics vs profit-driven Best-Fit (intra-DC, 24 h)", runs))
	var chart report.Chart
	chart.Caption = "SLA over 24 h per heuristic"
	for _, r := range runs {
		chart.Series = append(chart.Series, report.Series{Name: r.Policy, Values: r.SLASeries})
	}
	res.Charts = append(res.Charts, chart)
	res.Notes = append(res.Notes,
		"Round-Robin and Worst-Fit spread blindly (high energy), First-Fit packs blindly; only the profit objective balances both")
	return res, nil
}
