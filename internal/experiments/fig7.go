package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// PaperTableIII holds the published Table III values (per 5 VMs).
var PaperTableIII = map[string]struct {
	EuroH float64
	Watts float64
	SLA   float64
}{
	"static":  {0.745, 175.9, 0.921},
	"dynamic": {0.757, 102.0, 0.930},
}

// Figure7TableIII reproduces the static-vs-dynamic comparison of Section
// V-C (Figure 7 and Table III): the same four-DC five-VM system run once
// with VMs pinned to their customer-selected DCs (traffic redirected, no
// migration) and once with full inter-DC scheduling. The paper's claim:
// dynamic keeps SLA slightly better while cutting energy ~42% (175.9 W ->
// 102.0 W) by consolidating across datacenters. Both variants are sweep
// cells over the multi-dc preset.
func Figure7TableIII(seed uint64) (*Result, error) {
	spec := scenario.MustPreset(scenario.MultiDC, seed)
	ticks := model.TicksPerDay
	bundle, err := TrainedBundle(seed)
	if err != nil {
		return nil, err
	}
	static, err := sweep.RunSpec(spec, registered("static", "Static-Global", nil), bundle, ticks, sweep.RunOpts{})
	if err != nil {
		return nil, fmt.Errorf("figure7 static: %w", err)
	}
	dynamic, err := sweep.RunSpec(spec, registered("bf-ml", "Dynamic", nil), bundle, ticks, sweep.RunOpts{})
	if err != nil {
		return nil, fmt.Errorf("figure7 dynamic: %w", err)
	}

	res := &Result{Name: "Figure7TableIII", Metrics: map[string]float64{
		"euroH:static":  avgRevenueEuroH(static),
		"euroH:dynamic": avgRevenueEuroH(dynamic),
		"watts:static":  static.AvgWatts,
		"watts:dynamic": dynamic.AvgWatts,
		"sla:static":    static.AvgSLA,
		"sla:dynamic":   dynamic.AvgSLA,
	}}
	t := report.Table{
		Caption: "Table III — comparative results for the multi-DC per 5 VMs",
		Headers: []string{"policy", "avg €/h", "(paper)", "avg W", "(paper)", "avg SLA", "(paper)"},
	}
	for _, r := range []*sweep.PolicyRun{static, dynamic} {
		key := "static"
		if r == dynamic {
			key = "dynamic"
		}
		p := PaperTableIII[key]
		t.AddRow(r.Policy,
			fmt.Sprintf("%.3f", avgRevenueEuroH(r)), fmt.Sprintf("%.3f", p.EuroH),
			fmt.Sprintf("%.1f", r.AvgWatts), fmt.Sprintf("%.1f", p.Watts),
			fmt.Sprintf("%.3f", r.AvgSLA), fmt.Sprintf("%.3f", p.SLA),
		)
	}
	res.Tables = append(res.Tables, t)
	res.Tables = append(res.Tables, summaryTable("Figure 7 — static vs dynamic detail", []*sweep.PolicyRun{static, dynamic}))
	res.Charts = append(res.Charts, report.Chart{
		Caption: "Figure 7 — facility watts, static vs dynamic",
		Series: []report.Series{
			{Name: "static W", Values: static.WattsSeries},
			{Name: "dynamic W", Values: dynamic.WattsSeries},
		},
	}, report.Chart{
		Caption: "Figure 7 — SLA, static vs dynamic",
		Series: []report.Series{
			{Name: "static SLA", Values: static.SLASeries},
			{Name: "dynamic SLA", Values: dynamic.SLASeries},
		},
	})
	saving := 1 - dynamic.AvgWatts/static.AvgWatts
	res.Metrics["energySaving"] = saving
	res.Notes = append(res.Notes,
		fmt.Sprintf("dynamic cuts energy %.0f%% while holding SLA (%.3f vs %.3f); paper reports 42%%",
			saving*100, dynamic.AvgSLA, static.AvgSLA),
		ledgerNote(static), ledgerNote(dynamic))
	return res, nil
}

// avgRevenueEuroH returns gross revenue per hour (the paper's €/h column
// counts customer income per 5 VMs).
func avgRevenueEuroH(r *sweep.PolicyRun) float64 {
	hours := float64(r.Ticks) / 60
	if hours == 0 {
		return 0
	}
	return r.RevenueEUR / hours
}
