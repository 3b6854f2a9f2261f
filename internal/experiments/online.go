package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// OnlineLearning implements and evaluates the paper's future-work item 4:
// mid-run, a middleware update silently changes the fleet's ground truth —
// VMs suddenly need twice the memory per request and the hypervisor
// overhead grows. Nothing in the gateway-visible request mix changes, so
// frozen models keep predicting the old requirements and under-provision;
// the online bundle retrains on recent monitored data and adapts. The
// metric is SLA in the post-shift window.
func OnlineLearning(seed uint64) (*Result, error) {
	base, err := TrainedBundle(seed)
	if err != nil {
		return nil, err
	}
	const (
		ticks     = model.TicksPerDay
		shiftTick = 6 * model.TicksPerHour
	)
	// The update makes every request 2.2x as expensive on the CPU while the
	// gateway-visible request mix (rates, bytes, nominal per-request cost)
	// stays identical — the change is invisible until usage is observed.
	shifted := sim.DefaultParams()
	shifted.CPUCostFactor = 2.2

	run := func(online bool) (*sweep.PolicyRun, *predict.Online, error) {
		// Each run gets a private copy so runs cannot contaminate each other.
		var updater *predict.Online
		var bundle *predict.Bundle
		var err error
		name := "frozen-models"
		if online {
			name = "online-retrain"
			updater, err = predict.NewOnline(base, predict.DefaultTrainConfig(seed), 4000, 120)
			if err != nil {
				return nil, nil, err
			}
			bundle = updater.Bundle
		} else if bundle, err = predict.CloneBundle(base); err != nil {
			return nil, nil, err
		}
		// The first failed refit stops retraining; the run finishes on the
		// models it has and the error is returned after it.
		var retrainErr error
		pol := registered("bf-ml", name, func(sc *scenario.Scenario) model.Placement { return sc.PileOn(0) })
		pr, err := sweep.RunSpec(scenario.MustPreset(scenario.OnlineShift, seed), pol, bundle, ticks, sweep.RunOpts{
			OnTick: func(sc *scenario.Scenario, st sim.TickSummary) {
				if st.Tick == shiftTick {
					sc.World.SetParams(shifted)
				}
				if updater == nil || retrainErr != nil {
					return
				}
				updater.Observe(sc.World)
				_, retrainErr = updater.MaybeRetrain(st.Tick)
			},
		})
		if err != nil {
			return nil, nil, err
		}
		if retrainErr != nil {
			return nil, nil, retrainErr
		}
		return pr, updater, nil
	}

	frozen, _, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("online frozen: %w", err)
	}
	adaptive, updater, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("online adaptive: %w", err)
	}

	// Score the post-shift steady state (skip one hour of transient).
	lo := shiftTick + model.TicksPerHour
	frozenPost := sliceMean(frozen.SLASeries[lo:])
	adaptivePost := sliceMean(adaptive.SLASeries[lo:])
	prePhase := sliceMean(frozen.SLASeries[:shiftTick])

	res := &Result{Name: "OnlineLearning", Metrics: map[string]float64{
		"slaPre":          prePhase,
		"slaPost:frozen":  frozenPost,
		"slaPost:online":  adaptivePost,
		"retrains":        float64(updater.Retrains()),
		"recoveredPoints": adaptivePost - frozenPost,
	}}
	t := report.Table{
		Caption: fmt.Sprintf("Online learning — software update at tick %d makes requests 2.2x as CPU-expensive", shiftTick),
		Headers: []string{"policy", "SLA before shift", "SLA after shift", "migrations"},
	}
	t.AddRow("frozen-models", fmt.Sprintf("%.4f", prePhase), fmt.Sprintf("%.4f", frozenPost), fmt.Sprintf("%d", frozen.Migrations))
	t.AddRow("online-retrain", fmt.Sprintf("%.4f", sliceMean(adaptive.SLASeries[:shiftTick])), fmt.Sprintf("%.4f", adaptivePost), fmt.Sprintf("%d", adaptive.Migrations))
	res.Tables = append(res.Tables, t)
	res.Charts = append(res.Charts, report.Chart{
		Caption: "SLA across the software update (vertical event at 1/4 of the axis)",
		Series: []report.Series{
			{Name: "frozen", Values: frozen.SLASeries},
			{Name: "online", Values: adaptive.SLASeries},
		},
	})
	res.Notes = append(res.Notes, fmt.Sprintf(
		"after the update the frozen models under-provision (SLA %.3f); %d online refits recover %.3f SLA points (to %.3f)",
		frozenPost, updater.Retrains(), adaptivePost-frozenPost, adaptivePost))
	return res, nil
}
