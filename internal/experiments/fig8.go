package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/queueing"
	"repro/internal/report"
)

// Figure8 reproduces the SLA-vs-energy-vs-load characteristic surface of
// Section V-C: for each load level (requests per second), sweeping the CPU
// granted to a VM traces out how much energy must be spent to reach a
// desired QoS. The paper uses this plot to let operators pick an SLA
// target under an energy budget.
//
// The sweep runs directly on the queueing and power substrates — the same
// functions the simulator integrates — evaluated in parallel across the
// grid.
func Figure8(seed uint64) (*Result, error) {
	loads := []float64{10, 20, 40, 60, 80, 120}
	grants := make([]float64, 0, 80)
	for g := 5.0; g <= 400; g += 5 {
		grants = append(grants, g)
	}
	const cpuTimeReq = 0.012 // s per request: mid-weight service
	terms := model.DefaultSLATerms

	type idx struct{ i, j int }
	var grid []idx
	for i := range loads {
		for j := range grants {
			grid = append(grid, idx{i, j})
		}
	}
	cells := par.Map(grid, 0, func(g idx) sweepCell {
		load, grant := loads[g.i], grants[g.j]
		rt := queueing.ResponseTime(
			queueing.Demand{RPS: load, CPUTimeReq: cpuTimeReq},
			queueing.Grant{CPUPct: grant},
		)
		lvl := terms.Fulfilment(rt)
		// Energy: the host share attributable to this grant level, cooling
		// included (a host running this VM alone at this CPU level).
		watts := power.FacilityWatts(grant)
		return sweepCell{load, grant, lvl, watts}
	})

	res := &Result{Name: "Figure8", Metrics: map[string]float64{}}
	// The paper's reading of the plot: "how much energy needs to be used to
	// achieve a desired level of QoS" per load level. Render exactly that:
	// rows are SLA targets, columns are load levels, cells are the minimum
	// facility watts that reach the target.
	targets := []float64{0.50, 0.80, 0.90, 0.95, 0.99, 0.999}
	t := report.Table{
		Caption: "Figure 8 — facility watts needed per QoS target and load level",
		Headers: []string{"SLA target"},
	}
	for _, l := range loads {
		t.Headers = append(t.Headers, fmt.Sprintf("%.0f rps", l))
	}
	for _, target := range targets {
		row := []string{fmt.Sprintf("%.3f", target)}
		for _, l := range loads {
			w := wattsForSLA(cells, l, target)
			if w >= 999 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.1f W", w))
			}
		}
		t.AddRow(row...)
	}
	res.Tables = append(res.Tables, t)

	// The characteristic curves themselves, one per load level.
	chart := report.Chart{Caption: "Figure 8 — SLA vs granted CPU (columns 5%..400%), per load"}
	for _, l := range loads {
		var vals []float64
		for _, g := range grants {
			for _, c := range cells {
				if c.load == l && c.grant == g {
					vals = append(vals, c.slaLvl)
					break
				}
			}
		}
		chart.Series = append(chart.Series, report.Series{
			Name: fmt.Sprintf("%.0f rps", l), Values: vals,
		})
	}
	res.Charts = append(res.Charts, chart)

	for _, l := range loads {
		res.Metrics[fmt.Sprintf("wattsForSLA95@%.0frps", l)] = wattsForSLA(cells, l, 0.95)
	}
	res.Notes = append(res.Notes,
		"higher load shifts the SLA/energy curve right: reaching the same QoS costs more energy, the paper's management trade-off")
	_ = seed // the sweep is deterministic; seed kept for interface symmetry
	return res, nil
}

// sweepCell is one point of the Figure 8 grid.
type sweepCell struct {
	load, grant, slaLvl, watts float64
}

// wattsForSLA returns the smallest facility watts achieving the SLA target
// at the given load (sentinel 999 when unreachable at any grant).
func wattsForSLA(cells []sweepCell, load, target float64) float64 {
	best := 999.0
	for _, c := range cells {
		if c.load == load && c.slaLvl >= target && c.watts < best {
			best = c.watts
		}
	}
	return best
}
