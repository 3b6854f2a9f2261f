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

// ManagedRun is one assembled managed run: a scenario's world driven by
// a registry policy's scheduler through one core.Manager, with the
// engine, scheduler and lifecycle metric families on one registry. The
// runners record into the lifecycle family themselves.
// NewManagedRun builds it; RunSpec steps it as a sweep cell, serve as a
// placement service.
type ManagedRun struct {
	Manager   *core.Manager
	Scheduler sched.Scheduler
	// Lifecycle and Faults are non-nil exactly when the scenario carries
	// a Script and Faults respectively.
	Lifecycle *lifecycle.Runner
	Faults    *lifecycle.FaultRunner
	// Registry is the run's own metric registry; callers may register
	// further families on it.
	Registry *obs.Registry
	Engine   *sim.EngineMetrics
	Sched    *sched.Metrics // nil when the scheduler records no round stats
}

// NewManagedRun assembles the managed run on a freshly built scenario:
// make the scheduler with the policy's Make, place the policy's Initial
// (nil = HomePlacement), put the engine, scheduler and lifecycle families
// on a new registry, and attach a lifecycle.Runner / FaultRunner, each
// recording into the lifecycle family, exactly when the scenario carries
// a Script / Faults. The family is registered either way, so every run
// exports the same series. A policy that needs a bundle must be given
// one.
func NewManagedRun(sc *scenario.Scenario, pol Policy, bundle *predict.Bundle, opts RunOpts) (*ManagedRun, error) {
	if pol.Make == nil {
		return nil, fmt.Errorf("sweep: policy %q has no Make", pol.Name)
	}
	if pol.NeedsBundle && bundle == nil {
		return nil, fmt.Errorf("sweep: policy %q needs a predictor bundle", pol.Name)
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
	reg := obs.NewRegistry()
	r := &ManagedRun{
		Scheduler: s,
		Registry:  reg,
		Engine:    sim.NewEngineMetrics(reg),
	}
	life := lifecycle.NewMetrics(reg)
	sc.World.SetMetrics(r.Engine)
	if ms, ok := s.(interface{ SetMetrics(*sched.Metrics) }); ok {
		r.Sched = sched.NewSchedMetrics(reg)
		ms.SetMetrics(r.Sched)
	}
	cfg := core.ManagerConfig{
		World: sc.World, Scheduler: s, RoundTicks: DefaultRoundTicks,
	}
	if sc.Script != nil {
		r.Lifecycle = lifecycle.NewRunner(sc.Script)
		r.Lifecycle.SetMetrics(life)
		cfg.Lifecycle = r.Lifecycle
		if opts.Admission != nil {
			cfg.Admission = *opts.Admission
		}
	}
	if sc.Faults != nil {
		r.Faults = lifecycle.NewFaultRunner(sc.Faults)
		r.Faults.SetMetrics(life)
		cfg.Faults = r.Faults
		if opts.Degraded != nil {
			cfg.Degraded = *opts.Degraded
		}
	}
	if r.Manager, err = core.NewManager(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// RunSpec is the cell-runner every matrix cell, paper experiment and
// `mdcsim -scenario` run goes through: build the scenario, assemble the
// run with NewManagedRun, step it, and fold its ticks into the cell
// record. One scenario.Build and one core.Manager per call. The run
// shares the read-only bundle with other cells, and whatever
// spec.WrapWorkload attaches: Run gives the policy cells of one
// (scenario, seed) a shared trace.Memo that way. When the policy needs
// a bundle and none is supplied, the per-seed cache provides one.
func RunSpec(spec scenario.Spec, pol Policy, bundle *predict.Bundle, ticks int, opts RunOpts) (*PolicyRun, error) {
	if ticks <= 0 {
		return nil, fmt.Errorf("sweep: ticks must be positive, got %d", ticks)
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
	r, err := NewManagedRun(sc, pol, bundle, opts)
	if err != nil {
		return nil, err
	}
	run := &PolicyRun{Cell: Cell{
		Scenario: spec.Name, Policy: pol.Name, Seed: spec.Seed,
		Ticks: ticks, MinSLA: 1,
	}}
	if run.Policy == "" {
		run.Policy = r.Scheduler.Name()
	}
	var sumSLA, sumWatts, sumActive float64
	err = r.Manager.Run(ticks, func(st sim.TickSummary) {
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
		run.DCSeries = append(run.DCSeries, float64(sc.World.DCOfVM(0)))
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
	run.Rounds = r.Manager.Rounds()
	if run.Rounds > 0 {
		run.RoundMS = r.Manager.RoundWall().Seconds() * 1e3 / float64(run.Rounds)
	}
	if r.Sched != nil {
		run.FillMS = r.Sched.FillSeconds.Mean() * 1e3
		run.ScoreMS = r.Sched.ScoreSeconds.Mean() * 1e3
		run.ReduceMS = r.Sched.ReduceSeconds.Mean() * 1e3
	}
	// The ratio and latency columns derive from the runners' ledgers; the
	// zero ledgers of a run without runners give 1, 0, 0, 0 and 1.
	var lifeStats lifecycle.Stats
	if r.Lifecycle != nil {
		lifeStats = r.Lifecycle.Stats()
	}
	run.AdmissionRate = lifeStats.AdmissionRate()
	run.MeanPlaceTicks = lifeStats.MeanPlacementTicks()
	var faultStats lifecycle.FaultStats
	if r.Faults != nil {
		faultStats = r.Faults.Stats()
	}
	run.MeanRehomeTicks = faultStats.MeanRehomeTicks()
	run.MaxRehomeTicks = faultStats.MaxRehomeTicks
	run.Availability = faultStats.Availability()
	run.Obs = r.Registry.DeterministicSnapshot()
	// Count columns read their series; the lifecycle family is always
	// registered, and a scheduler that registers no round stats reads as
	// zero.
	for _, c := range []struct {
		col    *int
		series string
	}{
		{&run.OfferedVMs, "mdcsim_lifecycle_offered_total"},
		{&run.AdmittedVMs, "mdcsim_lifecycle_admitted_total"},
		{&run.RejectedVMs, "mdcsim_lifecycle_rejected_total"},
		{&run.DepartedVMs, "mdcsim_lifecycle_departed_total"},
		{&run.Crashes, "mdcsim_fault_crashes_total"},
		{&run.ForcedEvictions, "mdcsim_fault_forced_evictions_total"},
		{&run.Interruptions, "mdcsim_fault_interruptions_total"},
		{&run.RehomedVMs, "mdcsim_fault_rehomed_total"},
		{&run.ShedVMs, "mdcsim_fault_shed_total"},
		{&run.DegradedTicks, "mdcsim_fault_degraded_ticks_total"},
		{&run.RowsRecomputed, "mdcsim_sched_memo_rows_recomputed_total"},
		{&run.CandidatesScored, "mdcsim_sched_candidates_scored_total"},
		{&run.ShortlistRebuilds, "mdcsim_sched_shortlist_rebuilds_total"},
		{&run.ShortlistTruncated, "mdcsim_sched_shortlist_truncated_total"},
	} {
		*c.col = int(run.Obs[c.series])
	}
	run.EngineTicks = int(r.Engine.Ticks.Value())
	run.TickMS = r.Engine.TickSeconds.Mean() * 1e3
	return run, nil
}
