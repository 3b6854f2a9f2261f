package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
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
			fmt.Sprintf("%.3f", flat.msPerRound),
			fmt.Sprintf("%.3f", hier.msPerRound),
			fmt.Sprintf("%.4f", flat.avgSLA),
			fmt.Sprintf("%.4f", hier.avgSLA),
			fmt.Sprintf("%.0f", flat.avgWatts),
			fmt.Sprintf("%.0f", hier.avgWatts),
		)
		key := fmt.Sprintf("%d", size.vms)
		res.Metrics["flatMs:"+key] = flat.msPerRound
		res.Metrics["hierMs:"+key] = hier.msPerRound
		res.Metrics["flatSLA:"+key] = flat.avgSLA
		res.Metrics["hierSLA:"+key] = hier.avgSLA
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"the two-layer scheduler solves per-DC problems in parallel and exports only struggling VMs plus one candidate host per DC, so its global round stays small while the flat round grows as VMs x hosts")
	return res, nil
}

type hierarchyRun struct {
	avgSLA     float64
	avgWatts   float64
	msPerRound float64
}

func runHierarchyPolicy(seed uint64, vms, pmsPerDC int, bundle *predict.Bundle, twoLayer bool) (*hierarchyRun, error) {
	spec := scenario.MustPreset(scenario.Hierarchy, seed)
	spec.VMs = vms
	spec.PMsPerDC = pmsPerDC
	sc, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	est := sched.NewML(bundle)
	cost := CostModel(sc)
	var s sched.Scheduler
	if twoLayer {
		s = core.NewHierarchical(sc.Inventory, cost, est)
	} else {
		s = sched.NewBestFit(cost, est)
	}
	timed := &timedScheduler{inner: s}
	mgr, err := core.NewManager(core.ManagerConfig{
		World: sc.World, Scheduler: timed, RoundTicks: RoundTicks,
	})
	if err != nil {
		return nil, err
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		return nil, err
	}
	const ticks = 360 // 6 hours
	var sumSLA, sumW float64
	if err := mgr.Run(ticks, func(st sim.TickSummary) {
		sumSLA += st.AvgSLA
		sumW += st.FacilityWatts
	}); err != nil {
		return nil, err
	}
	out := &hierarchyRun{
		avgSLA:   sumSLA / ticks,
		avgWatts: sumW / ticks,
	}
	if timed.rounds > 0 {
		out.msPerRound = float64(timed.total.Milliseconds()) / float64(timed.rounds)
		if out.msPerRound == 0 {
			out.msPerRound = float64(timed.total.Microseconds()) / 1000 / float64(timed.rounds)
		}
	}
	return out, nil
}

// timedScheduler wraps a scheduler and accumulates decision wall-time.
type timedScheduler struct {
	inner  sched.Scheduler
	total  time.Duration
	rounds int
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Schedule(p *sched.Problem) (model.Placement, error) {
	start := time.Now()
	defer func() {
		t.total += time.Since(start)
		t.rounds++
	}()
	return t.inner.Schedule(p)
}
