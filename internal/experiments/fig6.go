package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Figure6 reproduces the full inter-DC scheduling run of Section V-C: four
// DCs with one available host each, five VMs, every factor active (SLA
// revenue, energy prices, migration penalties, client latencies), the
// workloads scaled differently per region and a flash crowd in minutes
// 70-90 that "clearly exceeds the capacity of the system". The run is one
// sweep cell over the flash-crowd preset.
func Figure6(seed uint64) (*Result, error) {
	spec := scenario.MustPreset(scenario.FlashCrowd, seed)
	ticks := model.TicksPerDay
	bundle, err := TrainedBundle(seed)
	if err != nil {
		return nil, err
	}
	run, err := sweep.RunSpec(spec, registered("bf-ml", "inter-DC BF+ML", nil), bundle, ticks, sweep.RunOpts{})
	if err != nil {
		return nil, fmt.Errorf("figure6: %w", err)
	}

	res := &Result{Name: "Figure6", Metrics: map[string]float64{
		"avgSLA":     run.AvgSLA,
		"minSLA":     run.MinSLA,
		"avgWatts":   run.AvgWatts,
		"migrations": float64(run.Migrations),
		"profitEURh": run.ProfitEURh,
	}}
	res.Tables = append(res.Tables, summaryTable("Figure 6 — full inter-DC scheduling", []*sweep.PolicyRun{run}))
	res.Charts = append(res.Charts, report.Chart{
		Caption: "Figure 6 — SLA / facility watts / active PMs over 24 h (flash crowd min 70-90)",
		Series: []report.Series{
			{Name: "SLA", Values: run.SLASeries},
			{Name: "watts", Values: run.WattsSeries},
			{Name: "PMs on", Values: run.ActiveSer},
			{Name: "vm0 DC", Values: run.DCSeries},
		},
	})
	// Quantify the paper's three observations.
	crowd := sliceMean(run.SLASeries[70:90])
	calm := sliceMean(run.SLASeries[200:400])
	res.Metrics["slaCrowd"] = crowd
	res.Metrics["slaCalm"] = calm
	res.Notes = append(res.Notes,
		fmt.Sprintf("flash-crowd SLA %.3f vs calm-period SLA %.3f (the crowd exceeds capacity by design)", crowd, calm),
		ledgerNote(run))
	return res, nil
}

func sliceMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
