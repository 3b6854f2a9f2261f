package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Figure5 reproduces the "follow the load" sanity check of Section V-C:
// one VM, four single-host DCs, the driving function reduced to
// latency-weighted SLA (no energy, no resource competition). The VM's
// clients are spread across the world, each region peaking in its local
// afternoon, so the dominant load source rotates — and the placement must
// rotate with it.
func Figure5(seed uint64) (*Result, error) {
	pol := sweep.Policy{
		Name: "follow-the-load",
		Make: func(sc *scenario.Scenario, _ *predict.Bundle) (sched.Scheduler, error) {
			cost := sweep.CostModel(sc)
			cost.LatencyOnly = true
			s := sched.NewBestFit(cost, sched.NewObserved())
			// Latency-only profits differ by fractions of a cent between
			// adjacent DCs; the default hysteresis would freeze the tour.
			s.MinGainEUR = 0.0003
			return s, nil
		},
		Initial: func(*scenario.Scenario) model.Placement { return model.Placement{0: 0} },
	}
	ticks := 2 * model.TicksPerDay
	var dominantSeries []float64
	colocated, moves, prevDC := 0, 0, model.DCID(0)
	run, err := sweep.RunSpec(scenario.MustPreset(scenario.FollowLoad, seed), pol, nil, ticks, sweep.RunOpts{
		OnTick: func(sc *scenario.Scenario, _ sim.TickSummary) {
			dc := sc.World.DCOfVM(0)
			truth, _ := sc.World.VMTruthAt(0)
			dom, _ := truth.Load.DominantSource()
			dominantSeries = append(dominantSeries, float64(dom))
			if int(dc) == int(dom) {
				colocated++
			}
			if dc != prevDC {
				moves++
				prevDC = dc
			}
		},
	})
	if err != nil {
		return nil, err
	}
	frac := float64(colocated) / float64(ticks)
	res := &Result{Name: "Figure5", Metrics: map[string]float64{
		"colocatedFrac": frac,
		"moves":         float64(moves),
	}}
	res.Charts = append(res.Charts, report.Chart{
		Caption: "Figure 5 — VM placement (DC index) vs dominant load source over 48 h",
		Series: []report.Series{
			{Name: "hosting DC", Values: run.DCSeries},
			{Name: "dominant src", Values: dominantSeries},
		},
	})
	res.Notes = append(res.Notes,
		fmt.Sprintf("VM colocated with its dominant load source %.0f%% of ticks, %d inter-DC moves in 48 h", frac*100, moves))
	return res, nil
}
