package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Failures measures how placement policies survive injected faults — the
// robustness axis the paper's immortal-fleet evaluation never exercises.
// Every setup replays the *identical* scripted faults of the
// fail-az-outage preset (DC 0, a quarter of the fleet, out cold for two
// hours mid-run) plus the maint-rolling drain wave as a second table, so
// differences are pure policy, not luck:
//
//   - BF-OB and BF+ML re-home evicted VMs through the normal round; the
//     re-home queue bypasses admission (those VMs were already accepted)
//     but its reserved capacity gates fresh churn arrivals;
//   - the /shed variants additionally retire dynamic VMs still homeless
//     after 30 degraded ticks instead of deferring forever.
//
// The interesting numbers are availability (served VM-time fraction),
// re-home latency (how many ticks an evicted VM waits for the next
// round), and forced evictions during drains (zero when the deadline
// allows a full round).
func Failures(seed uint64) (*Result, error) {
	ticks := 4 * 60 // covers outage start, degraded window and recovery
	bundle, err := TrainedBundle(seed)
	if err != nil {
		return nil, err
	}

	type setup struct {
		name      string
		admission *core.AdmissionPolicy
		degraded  *core.DegradedPolicy
		policy    string // sweep registry name
	}
	setups := []setup{
		{name: "BF-OB", policy: "bf-ob",
			admission: &core.AdmissionPolicy{}},
		{name: "BF-OB/shed", policy: "bf-ob",
			admission: &core.AdmissionPolicy{},
			degraded:  &core.DegradedPolicy{ShedAfterTicks: 30}},
		{name: "BF+ML", policy: "bf-ml",
			admission: &core.AdmissionPolicy{Bundle: bundle}},
		{name: "BF+ML/shed", policy: "bf-ml",
			admission: &core.AdmissionPolicy{Bundle: bundle},
			degraded:  &core.DegradedPolicy{ShedAfterTicks: 30}},
	}

	res := &Result{Name: "Fault injection: availability under identical injected faults",
		Metrics: map[string]float64{}}

	runTable := func(preset, caption string) (report.Table, []report.Series, error) {
		t := report.Table{
			Caption: caption,
			Headers: []string{"policy", "avail", "interrupts", "rehomed",
				"t→rehome", "max", "forced-evict", "shed", "degraded-ticks",
				"avg SLA", "profit €/h"},
		}
		var series []report.Series
		spec := scenario.MustPreset(preset, seed)
		for _, su := range setups {
			run, err := sweep.RunSpec(spec, registered(su.policy, su.name, nil), bundle, ticks, sweep.RunOpts{
				Admission: su.admission,
				Degraded:  su.degraded,
			})
			if err != nil {
				return t, nil, fmt.Errorf("failures %s/%s: %w", preset, su.name, err)
			}
			t.AddRow(su.name,
				fmt.Sprintf("%.4f", run.Availability),
				fmt.Sprintf("%d", run.Interruptions),
				fmt.Sprintf("%d", run.RehomedVMs),
				fmt.Sprintf("%.1f", run.MeanRehomeTicks),
				fmt.Sprintf("%d", run.MaxRehomeTicks),
				fmt.Sprintf("%d", run.ForcedEvictions),
				fmt.Sprintf("%d", run.ShedVMs),
				fmt.Sprintf("%d", run.DegradedTicks),
				fmt.Sprintf("%.4f", run.AvgSLA),
				fmt.Sprintf("%.4f", run.ProfitEURh))
			key := preset + "/" + su.name
			res.Metrics["availability:"+key] = run.Availability
			res.Metrics["interruptions:"+key] = float64(run.Interruptions)
			res.Metrics["rehomed:"+key] = float64(run.RehomedVMs)
			res.Metrics["rehomeTicks:"+key] = run.MeanRehomeTicks
			res.Metrics["maxRehomeTicks:"+key] = float64(run.MaxRehomeTicks)
			res.Metrics["forcedEvictions:"+key] = float64(run.ForcedEvictions)
			res.Metrics["shed:"+key] = float64(run.ShedVMs)
			res.Metrics["sla:"+key] = run.AvgSLA
			series = append(series, report.Series{Name: su.name, Values: run.SLASeries})
		}
		return t, series, nil
	}

	outageT, outageS, err := runTable(scenario.FailAZOutage,
		"fail-az-outage: DC 0 out ticks 65-185, identical script per policy")
	if err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, outageT)
	res.Charts = append(res.Charts, report.Chart{
		Caption: "fleet SLA through the DC-0 outage (ticks 65-185)",
		Series:  outageS,
	})

	maintT, _, err := runTable(scenario.MaintRolling,
		"maint-rolling: every host drained in turn, 30-tick deadline (3 rounds)")
	if err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, maintT)

	res.Notes = append(res.Notes,
		"every policy replays the same scripted faults (seeded per-host streams): differences are policy, not luck",
		"re-homed VMs bypass admission — they were already accepted — and their reserved requirements gate fresh arrivals until they land",
		"the rolling drain gives each host three full rounds, so forced evictions should be zero for any policy that can migrate")
	return res, nil
}
