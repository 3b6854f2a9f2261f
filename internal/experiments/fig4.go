package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Figure4 reproduces the intra-DC comparison of Section V-B: plain
// Best-Fit (sized by the last-10-minutes monitored usage), Best-Fit with
// 2x overbooking (BF-OB), and the ML-enhanced Best-Fit, all managing four
// Atom PMs hosting five VMs for 24 hours with a scheduling round every 10
// minutes. The paper's claim: the ML variant (de-)consolidates to track
// the load, trading energy for SLA whenever revenue pays for it. Each
// policy is one sweep cell over the intra-dc preset.
func Figure4(seed uint64) (*Result, error) {
	spec := scenario.MustPreset(scenario.IntraDC, seed)
	ticks := model.TicksPerDay
	// Everything starts piled on the first host; the policies must dig
	// themselves out.
	initial := func(sc *scenario.Scenario) model.Placement { return sc.PileOn(0) }
	bundle, err := TrainedBundle(seed)
	if err != nil {
		return nil, err
	}
	policies := []sweep.Policy{
		registered("bf", "BF", initial),
		registered("bf-ob", "BF-OB", initial),
		registered("bf-ml", "BF+ML", initial),
	}
	res := &Result{Name: "Figure4", Metrics: map[string]float64{}}
	var runs []*sweep.PolicyRun
	var slaChart, pmChart report.Chart
	slaChart.Caption = "Figure 4 (SLA over 24 h, per policy)"
	pmChart.Caption = "Figure 4 (active PMs over 24 h, per policy)"
	for _, pol := range policies {
		run, err := sweep.RunSpec(spec, pol, bundle, ticks, sweep.RunOpts{})
		if err != nil {
			return nil, fmt.Errorf("figure4 %s: %w", pol.Name, err)
		}
		runs = append(runs, run)
		slaChart.Series = append(slaChart.Series, report.Series{Name: pol.Name, Values: run.SLASeries})
		pmChart.Series = append(pmChart.Series, report.Series{Name: pol.Name, Values: run.ActiveSer})
		res.Metrics["sla:"+pol.Name] = run.AvgSLA
		res.Metrics["watts:"+pol.Name] = run.AvgWatts
		res.Metrics["profit:"+pol.Name] = run.ProfitEURh
		res.Metrics["pms:"+pol.Name] = run.AvgActivePMs
		res.Notes = append(res.Notes, ledgerNote(run))
	}
	res.Tables = append(res.Tables, summaryTable("Figure 4 — intra-DC scheduling results and factors", runs))
	res.Charts = append(res.Charts, slaChart, pmChart)
	return res, nil
}
