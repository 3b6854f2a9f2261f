package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Churn measures placement policies and admission control under workload
// churn — the axis the paper's fixed-population evaluation never
// exercises. The churn-storm scenario slams the fleet with waves of
// short-lived batch VMs every two hours; each run pairs a scheduler with
// an admission controller:
//
//   - admit-all: every arrival enters, the scheduler absorbs the storm;
//   - capacity / tight-cap: the commitment gate defers arrivals while the
//     fleet's committed requirements exceed the ceiling, rejecting them
//     past the deferral deadline (tight-cap lowers the ceiling to 40%);
//   - capacity+SLA: the ML gate additionally rejects arrivals whose
//     predicted fulfilment is hopeless even at a full grant.
//
// The interesting trade-off is revenue (admitting more VMs) against the
// SLA of everyone already inside — an admission controller earns its keep
// when the storm would otherwise drown the fleet.
func Churn(seed uint64) (*Result, error) {
	spec := scenario.MustPreset(scenario.ChurnStorm, seed)
	ticks := 8 * 60 // four storms
	bundle, err := TrainedBundle(seed)
	if err != nil {
		return nil, err
	}

	type setup struct {
		name      string
		admission *core.AdmissionPolicy
		policy    string // sweep registry name
	}
	setups := []setup{
		{name: "BF-OB/admit-all", policy: "bf-ob",
			admission: &core.AdmissionPolicy{Disabled: true}},
		{name: "BF-OB/capacity", policy: "bf-ob",
			admission: &core.AdmissionPolicy{}},
		{name: "BF-OB/tight-cap", policy: "bf-ob",
			admission: &core.AdmissionPolicy{TargetUtil: 0.4}},
		{name: "BF+ML/capacity", policy: "bf-ml",
			admission: &core.AdmissionPolicy{Bundle: bundle}},
		{name: "BF+ML/cap+SLA", policy: "bf-ml",
			admission: &core.AdmissionPolicy{Bundle: bundle, MinPredictedSLA: 0.6}},
	}

	res := &Result{Name: "Workload churn: admission control under arrival storms",
		Metrics: map[string]float64{}}
	t := report.Table{
		Caption: "churn-storm, 8 h, storms of batch VMs every 2 h",
		Headers: []string{"policy", "avg SLA", "min SLA", "profit €/h",
			"offered", "admitted", "rejected", "departed", "t→place", "migrations"},
	}
	var slaSeries []report.Series
	for _, su := range setups {
		run, err := sweep.RunSpec(spec, registered(su.policy, su.name, nil), bundle, ticks, sweep.RunOpts{
			Admission: su.admission,
		})
		if err != nil {
			return nil, fmt.Errorf("churn %s: %w", su.name, err)
		}
		t.AddRow(su.name,
			fmt.Sprintf("%.4f", run.AvgSLA),
			fmt.Sprintf("%.4f", run.MinSLA),
			fmt.Sprintf("%.4f", run.ProfitEURh),
			fmt.Sprintf("%d", run.OfferedVMs),
			fmt.Sprintf("%d", run.AdmittedVMs),
			fmt.Sprintf("%d", run.RejectedVMs),
			fmt.Sprintf("%d", run.DepartedVMs),
			fmt.Sprintf("%.1f", run.MeanPlaceTicks),
			fmt.Sprintf("%d", run.Migrations))
		res.Metrics["sla:"+su.name] = run.AvgSLA
		res.Metrics["profit:"+su.name] = run.ProfitEURh
		res.Metrics["offered:"+su.name] = float64(run.OfferedVMs)
		res.Metrics["admitted:"+su.name] = float64(run.AdmittedVMs)
		res.Metrics["rejected:"+su.name] = float64(run.RejectedVMs)
		res.Metrics["admitRate:"+su.name] = run.AdmissionRate
		res.Metrics["placeTicks:"+su.name] = run.MeanPlaceTicks
		slaSeries = append(slaSeries, report.Series{Name: su.name, Values: run.SLASeries})
	}
	res.Tables = append(res.Tables, t)
	res.Charts = append(res.Charts, report.Chart{
		Caption: "fleet SLA through the arrival storms",
		Series:  slaSeries,
	})
	res.Notes = append(res.Notes,
		"lifetimes count from admission; every run sees the identical scripted storm (seeded event queue)",
		"admit-all keeps every storm VM, trading incumbent SLA for storm revenue; the gates shed load once committed requirements pass the ceiling")
	return res, nil
}
