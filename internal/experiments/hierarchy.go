package experiments

import (
	"fmt"

	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Hierarchy measures the paper's structural contribution directly: the
// two-layer decomposition ("each DC only provides to the global scheduler
// a set of available physical machines and a set of VM's that may benefit
// if scheduled somewhere else") against a flat global Best-Fit that
// considers every VM on every host, at growing fleet sizes. The narrow
// interface should cut decision latency while keeping outcome quality.
func Hierarchy(seed uint64) (*Result, error) {
	bundle, err := TrainedBundle(seed)
	if err != nil {
		return nil, err
	}
	// The ladder tops out well past the old 48-VM ceiling: since the flat
	// ML inference stack (PR 4) a 48-VM flat round is sub-millisecond and
	// the decomposition's fixed overheads (sub-problem assembly, per-DC
	// fan-out) drown the signal there. The structural advantage is a
	// scaling claim, so it is asserted at the largest size.
	sizes := []struct{ vms, pmsPerDC int }{
		{8, 2}, {16, 4}, {48, 12}, {96, 24}, {192, 48},
	}
	res := &Result{Name: "Hierarchy", Metrics: map[string]float64{}}
	t := report.Table{
		Caption: "Two-layer vs flat scheduling (4 DCs, 6 h managed run)",
		Headers: []string{"VMs", "hosts", "flat ms/round", "hier ms/round", "flat SLA", "hier SLA", "flat W", "hier W"},
	}
	for _, size := range sizes {
		flat, err := runHierarchyPolicy(seed, size.vms, size.pmsPerDC, bundle, false)
		if err != nil {
			return nil, fmt.Errorf("hierarchy flat %dx%d: %w", size.vms, size.pmsPerDC, err)
		}
		hier, err := runHierarchyPolicy(seed, size.vms, size.pmsPerDC, bundle, true)
		if err != nil {
			return nil, fmt.Errorf("hierarchy two-layer %dx%d: %w", size.vms, size.pmsPerDC, err)
		}
		hosts := size.pmsPerDC * 4
		t.AddRow(
			fmt.Sprintf("%d", size.vms),
			fmt.Sprintf("%d", hosts),
			fmt.Sprintf("%.3f", flat.RoundMS),
			fmt.Sprintf("%.3f", hier.RoundMS),
			fmt.Sprintf("%.4f", flat.AvgSLA),
			fmt.Sprintf("%.4f", hier.AvgSLA),
			fmt.Sprintf("%.0f", flat.AvgWatts),
			fmt.Sprintf("%.0f", hier.AvgWatts),
		)
		key := fmt.Sprintf("%d", size.vms)
		res.Metrics["flatMs:"+key] = flat.RoundMS
		res.Metrics["hierMs:"+key] = hier.RoundMS
		res.Metrics["flatSLA:"+key] = flat.AvgSLA
		res.Metrics["hierSLA:"+key] = hier.AvgSLA
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"the two-layer scheduler solves per-DC problems in parallel and exports only struggling VMs plus one candidate host per DC, so its global round stays small while the flat round grows as VMs x hosts")
	return res, nil
}

// runHierarchyPolicy runs the hierarchy preset resized to vms VMs and
// pmsPerDC hosts per DC for 6 hours under the flat (bf-ml) or the
// two-layer (hier-ml) ML scheduler, starting from the home placement.
func runHierarchyPolicy(seed uint64, vms, pmsPerDC int, bundle *predict.Bundle, twoLayer bool) (*sweep.PolicyRun, error) {
	spec := scenario.MustPreset(scenario.Hierarchy, seed)
	spec.VMs = vms
	spec.PMsPerDC = pmsPerDC
	name := "bf-ml"
	if twoLayer {
		name = "hier-ml"
	}
	return sweep.RunSpec(spec, registered(name, name, nil), bundle, 360, sweep.RunOpts{})
}
