package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// GreenEnergy implements the paper's future-work item ("the green energy
// into the scheme, not only to reduce energy costs but also environmental
// impact"): each DC's electricity price collapses while its local sun
// shines (on-site solar displacing grid power), and the scheduler is free
// to chase the cheap watts. The expected behaviour is the 'follow the
// sun/wind' policy of Section III-A, emerging purely from the energy term
// of the profit function. Both variants are sweep cells over the
// green-solar preset; the sunlit counter rides the cell-runner's OnTick
// hook.
func GreenEnergy(seed uint64) (*Result, error) {
	bundle, err := TrainedBundle(seed)
	if err != nil {
		return nil, err
	}
	ticks := 2 * model.TicksPerDay
	spec := scenario.MustPreset(scenario.GreenSolar, seed)
	base := spec.Pricing.Base

	run := func(dynamic bool) (*sweep.PolicyRun, float64, error) {
		pol := registered("static", "static", nil)
		if dynamic {
			pol = registered("bf-ml", "follow-the-sun", nil)
		}
		// Count ticks where vm0's host enjoys solar-discounted power.
		sunlit := 0
		pr, err := sweep.RunSpec(spec, pol, bundle, ticks, sweep.RunOpts{
			OnTick: func(sc *scenario.Scenario, st sim.TickSummary) {
				if dc := sc.World.DCOfVM(0); dc >= 0 &&
					sc.Topology.EnergyPriceAt(dc, st.Tick) < base[dc]*0.7 {
					sunlit++
				}
			},
		})
		if err != nil {
			return nil, 0, err
		}
		return pr, float64(sunlit) / float64(ticks), nil
	}

	static, staticSunlit, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("green static: %w", err)
	}
	dynamic, dynamicSunlit, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("green dynamic: %w", err)
	}

	res := &Result{Name: "GreenEnergy", Metrics: map[string]float64{
		"energyEUR:static":   static.EnergyEUR,
		"energyEUR:dynamic":  dynamic.EnergyEUR,
		"sla:static":         static.AvgSLA,
		"sla:dynamic":        dynamic.AvgSLA,
		"sunlitFrac:static":  staticSunlit,
		"sunlitFrac:dynamic": dynamicSunlit,
	}}
	t := report.Table{
		Caption: "Green energy extension — follow-the-sun scheduling over 48 h",
		Headers: []string{"policy", "avg SLA", "energy €", "€ saved", "vm0 on solar power"},
	}
	for _, rs := range []struct {
		r      *sweep.PolicyRun
		sunlit float64
	}{{static, staticSunlit}, {dynamic, dynamicSunlit}} {
		t.AddRow(rs.r.Policy,
			fmt.Sprintf("%.4f", rs.r.AvgSLA),
			fmt.Sprintf("%.4f", rs.r.EnergyEUR),
			fmt.Sprintf("%.4f", static.EnergyEUR-rs.r.EnergyEUR),
			fmt.Sprintf("%.0f%%", rs.sunlit*100),
		)
	}
	res.Tables = append(res.Tables, t)
	res.Charts = append(res.Charts, report.Chart{
		Caption: "vm0 hosting DC, static vs follow-the-sun (DC index over 48 h)",
		Series: []report.Series{
			{Name: "static", Values: static.DCSeries},
			{Name: "dynamic", Values: dynamic.DCSeries},
		},
	})
	cut := 0.0
	if static.EnergyEUR > 0 {
		cut = 1 - dynamic.EnergyEUR/static.EnergyEUR
	}
	res.Metrics["energyCut"] = cut
	res.Notes = append(res.Notes, fmt.Sprintf(
		"the profit objective alone produces a follow-the-sun tour: energy cost falls %.0f%% and vm0 runs on solar-discounted power %.0f%% of the time (static: %.0f%%)",
		cut*100, dynamicSunlit*100, staticSunlit*100))
	return res, nil
}
