// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V). Each experiment is a pure function of a seed,
// returning tables and series shaped like the paper's outputs; the bench
// harness at the repository root regenerates them all. Experiments run
// registry policies through the shared sweep cell-runner (internal/sweep),
// so one experiment run and one sweep cell are the same code path.
//
// Index (see DESIGN.md for the full mapping):
//
//	TableI            — learning quality of the seven predictors
//	Figure4           — intra-DC: BF vs BF-OB vs BF+ML over 24 h
//	Figure5           — follow-the-load placement of a single VM
//	Delocation        — §V-C fixed DC vs de-location benefit
//	Figure6           — full inter-DC scheduling with flash crowd
//	Figure7TableIII   — static vs dynamic multi-DC comparison
//	Figure8           — SLA vs energy vs load trade-off surface
//	SchedulerScaling  — Best-Fit vs exhaustive solver blow-up (§IV-C)
//	Churn             — admission control under workload churn (beyond the paper)
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Result is the uniform output of one experiment.
type Result struct {
	Name   string
	Tables []report.Table
	Charts []report.Chart
	Notes  []string
	// Metrics exposes headline numbers for tests and benches.
	Metrics map[string]float64
}

// Render returns the whole result as printable text.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Name)
	for i := range r.Tables {
		b.WriteString(r.Tables[i].Render())
		b.WriteByte('\n')
	}
	for i := range r.Charts {
		b.WriteString(r.Charts[i].Render())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// TrainedBundle returns the predictor bundle for a seed, training it on
// first use (delegating to the sweep-level per-seed cache).
func TrainedBundle(seed uint64) (*predict.Bundle, error) {
	return sweep.TrainedBundle(seed)
}

// registered returns the sweep registry's policy name, relabelled for a
// figure and started from initial (nil = HomePlacement), so an experiment
// runs exactly the scheduler a sweep cell of that name runs.
func registered(name, label string, initial func(*scenario.Scenario) model.Placement) sweep.Policy {
	pol, err := sweep.PolicyByName(name)
	if err != nil {
		panic(err) // every caller names a policy the registry declares
	}
	pol.Name, pol.Initial = label, initial
	return pol
}

// summaryTable renders PolicyRuns side by side.
func summaryTable(caption string, runs []*sweep.PolicyRun) report.Table {
	t := report.Table{
		Caption: caption,
		Headers: []string{"policy", "avg SLA", "min SLA", "avg W", "profit €/h", "migrations", "avg PMs on"},
	}
	for _, r := range runs {
		t.AddRow(r.Policy,
			fmt.Sprintf("%.4f", r.AvgSLA),
			fmt.Sprintf("%.4f", r.MinSLA),
			fmt.Sprintf("%.1f", r.AvgWatts),
			fmt.Sprintf("%.4f", r.ProfitEURh),
			fmt.Sprintf("%d", r.Migrations),
			fmt.Sprintf("%.2f", r.AvgActivePMs),
		)
	}
	return t
}

// ledgerNote formats the money components of a run.
func ledgerNote(r *sweep.PolicyRun) string {
	return fmt.Sprintf("%s: revenue %.3f€, energy %.3f€, penalties %.3f€ over %d ticks",
		r.Policy, r.RevenueEUR, r.EnergyEUR, r.PenaltyEUR, r.Ticks)
}
