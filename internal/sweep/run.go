package sweep

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// bundleCache memoises trained predictor bundles per seed: cells of the
// same seed (and several experiments) share the same models, and training
// is the expensive step.
var bundleCache sync.Map // uint64 -> *predict.Bundle

// TrainedBundle returns the predictor bundle for a seed, training it on
// first use. The bundle is read-only after training and safe to share
// across concurrently running cells.
func TrainedBundle(seed uint64) (*predict.Bundle, error) {
	if v, ok := bundleCache.Load(seed); ok {
		return v.(*predict.Bundle), nil
	}
	h, err := predict.Collect(predict.DefaultHarvestOpts(seed))
	if err != nil {
		return nil, err
	}
	b, err := predict.Train(h, predict.DefaultTrainConfig(seed))
	if err != nil {
		return nil, err
	}
	actual, _ := bundleCache.LoadOrStore(seed, b)
	return actual.(*predict.Bundle), nil
}

// PolicyRun is one (scenario, policy, seed) execution — a sweep cell, or
// one run of a paper experiment: the cell record plus the per-tick series
// the figures plot. Sweep matrices keep only the Cell, so the series die
// with the run.
type PolicyRun struct {
	Cell
	SLASeries   []float64
	WattsSeries []float64
	ActiveSer   []float64
	DCSeries    []float64 // hosting DC of VM 0 (for placement plots)
}

// RunOpts tunes one cell execution beyond the (spec, policy, ticks) key.
type RunOpts struct {
	// OnTick, when non-nil, observes every tick after the standard
	// metrics are folded in — the hook experiment-specific series
	// (e.g. the green-energy sunlit counter) ride on.
	OnTick func(sc *scenario.Scenario, st sim.TickSummary)
	// Admission overrides the admission controller of churn scenarios
	// (nil = the default capacity gate). The default never consults the
	// predictor bundle, so a cell's decisions cannot depend on whether
	// some other policy in the matrix happened to train one; ML-gated
	// admission is an explicit opt-in.
	Admission *core.AdmissionPolicy
	// Degraded overrides the graceful-degradation policy of fault
	// scenarios (nil = core defaults: never shed).
	Degraded *core.DegradedPolicy
}

// RunSpec is the cell-runner every matrix cell, paper experiment and
// `mdcsim -scenario` run goes through: build the scenario, make the
// scheduler, place the policy's Initial (nil = HomePlacement), run the
// managed loop, collect metrics. One scenario.Build and one core.Manager
// per call, nothing shared with other cells except the read-only bundle.
// When the policy needs a bundle and none is supplied, the per-seed cache
// provides one.
func RunSpec(spec scenario.Spec, pol Policy, bundle *predict.Bundle, ticks int, opts RunOpts) (*PolicyRun, error) {
	if ticks <= 0 {
		return nil, fmt.Errorf("sweep: ticks must be positive, got %d", ticks)
	}
	if pol.Make == nil {
		return nil, fmt.Errorf("sweep: policy %q has no Make", pol.Name)
	}
	if pol.NeedsBundle && bundle == nil {
		var err error
		if bundle, err = TrainedBundle(spec.Seed); err != nil {
			return nil, err
		}
	}
	sc, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	s, err := pol.Make(sc, bundle)
	if err != nil {
		return nil, err
	}
	initial := pol.Initial
	if initial == nil {
		initial = (*scenario.Scenario).HomePlacement
	}
	if err := sc.World.PlaceInitial(initial(sc)); err != nil {
		return nil, err
	}
	// Every cell carries its own registry, so cells stay share-nothing and
	// the deterministic snapshot is per-(scenario, policy, seed).
	reg := obs.NewRegistry()
	engMet := sim.NewEngineMetrics(reg)
	sc.World.SetMetrics(engMet)
	var schedMet *sched.Metrics
	if ms, ok := s.(interface{ SetMetrics(*sched.Metrics) }); ok {
		schedMet = sched.NewSchedMetrics(reg)
		ms.SetMetrics(schedMet)
	}
	lifeMet := lifecycle.NewMetrics(reg)
	mgrCfg := core.ManagerConfig{
		World: sc.World, Scheduler: s, RoundTicks: DefaultRoundTicks,
	}
	var runner *lifecycle.Runner
	if sc.Script != nil {
		runner = lifecycle.NewRunner(sc.Script)
		mgrCfg.Lifecycle = runner
		if opts.Admission != nil {
			mgrCfg.Admission = *opts.Admission
		}
	}
	var faults *lifecycle.FaultRunner
	if sc.Faults != nil {
		faults = lifecycle.NewFaultRunner(sc.Faults)
		mgrCfg.Faults = faults
		if opts.Degraded != nil {
			mgrCfg.Degraded = *opts.Degraded
		}
	}
	mgr, err := core.NewManager(mgrCfg)
	if err != nil {
		return nil, err
	}
	run := &PolicyRun{Cell: Cell{
		Scenario: spec.Name, Policy: pol.Name, Seed: spec.Seed,
		Ticks: ticks, MinSLA: 1, AdmissionRate: 1, Availability: 1,
	}}
	if run.Policy == "" {
		run.Policy = s.Name()
	}
	var sumSLA, sumWatts, sumActive float64
	err = mgr.Run(ticks, func(st sim.TickSummary) {
		sumSLA += st.AvgSLA
		sumWatts += st.FacilityWatts
		sumActive += float64(st.ActivePMs)
		if st.AvgSLA < run.MinSLA {
			run.MinSLA = st.AvgSLA
		}
		run.Migrations += st.Migrations
		run.SLASeries = append(run.SLASeries, st.AvgSLA)
		run.WattsSeries = append(run.WattsSeries, st.FacilityWatts)
		run.ActiveSer = append(run.ActiveSer, float64(st.ActivePMs))
		run.DCSeries = append(run.DCSeries, float64(sc.World.State().DCOfVM(0)))
		if opts.OnTick != nil {
			opts.OnTick(sc, st)
		}
	})
	if err != nil {
		return nil, err
	}
	n := float64(ticks)
	run.AvgSLA = sumSLA / n
	run.AvgWatts = sumWatts / n
	run.AvgActivePMs = sumActive / n
	ledger := sc.World.Ledger()
	run.ProfitEURh = ledger.AvgProfitPerHour(sim.TickHours)
	run.RevenueEUR = ledger.Revenue()
	run.EnergyEUR = ledger.EnergyCost()
	run.PenaltyEUR = ledger.Penalties()
	run.Rounds = mgr.Rounds()
	if run.Rounds > 0 {
		run.RoundMS = mgr.RoundWall().Seconds() * 1e3 / float64(run.Rounds)
	}
	if schedMet != nil {
		run.FillMS = schedMet.FillSeconds.Mean() * 1e3
		run.ScoreMS = schedMet.ScoreSeconds.Mean() * 1e3
		run.ReduceMS = schedMet.ReduceSeconds.Mean() * 1e3
	}
	var lifeStats lifecycle.Stats
	if runner != nil {
		lifeStats = runner.Stats()
		run.OfferedVMs = lifeStats.Offered
		run.AdmittedVMs = lifeStats.Admitted
		run.RejectedVMs = lifeStats.Rejected
		run.DepartedVMs = lifeStats.Departed
		run.AdmissionRate = lifeStats.AdmissionRate()
		run.MeanPlaceTicks = lifeStats.MeanPlacementTicks()
	}
	var faultStats lifecycle.FaultStats
	if faults != nil {
		faultStats = faults.Stats()
		run.Crashes = faultStats.Crashes
		run.ForcedEvictions = faultStats.ForcedEvictions
		run.Interruptions = faultStats.Interruptions
		run.RehomedVMs = faultStats.Rehomed
		run.ShedVMs = faultStats.Shed
		run.DegradedTicks = faultStats.DegradedTicks
		run.MeanRehomeTicks = faultStats.MeanRehomeTicks()
		run.MaxRehomeTicks = faultStats.MaxRehomeTicks
		run.Availability = faultStats.Availability()
	}
	lifeMet.Observe(lifeStats, faultStats)
	run.Obs = reg.DeterministicSnapshot()
	// Round counters read the scheduler's own series; a scheduler that
	// registers none (no round stats) reads as zero.
	for _, c := range []struct {
		col    *int
		series string
	}{
		{&run.RowsRecomputed, "mdcsim_sched_memo_rows_recomputed_total"},
		{&run.CandidatesScored, "mdcsim_sched_candidates_scored_total"},
		{&run.ShortlistRebuilds, "mdcsim_sched_shortlist_rebuilds_total"},
		{&run.ShortlistTruncated, "mdcsim_sched_shortlist_truncated_total"},
	} {
		*c.col = int(run.Obs[c.series])
	}
	run.EngineTicks = int(engMet.Ticks.Value())
	run.TickMS = engMet.TickSeconds.Mean() * 1e3
	return run, nil
}
