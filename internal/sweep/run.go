package sweep

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/model"
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

// PolicyRun summarises one (scenario, policy, seed) execution — a sweep
// cell, or one run of a paper experiment.
type PolicyRun struct {
	Policy     string
	Scenario   string
	Seed       uint64
	Ticks      int
	AvgSLA     float64
	MinSLA     float64
	AvgWatts   float64
	AvgEuroH   float64 // profit per hour
	RevenueEUR float64
	EnergyEUR  float64
	PenaltyEUR float64
	Migrations int
	AvgActive  float64
	// Rounds counts executed scheduling rounds; RoundMS is their mean
	// wall-clock latency in milliseconds (not deterministic — excluded
	// from machine-readable sweep output).
	Rounds  int
	RoundMS float64
	// Phase breakdown of the rounds, probed from schedulers implementing
	// sched.RoundStatsReporter (zero otherwise). FillMS/ScoreMS/ReduceMS
	// are mean per-round wall milliseconds (non-deterministic, reporting
	// only); RowsRecomputed is the total VM rows the rounds' table fills
	// estimated — a pure counter, deterministic like every placement
	// decision.
	FillMS         float64
	ScoreMS        float64
	ReduceMS       float64
	RowsRecomputed int
	// Candidate-shortlist counters (see sched.RoundStats): profit
	// evaluations performed, prune-index rebuilds, and truncated host-state
	// classes, summed over the cell's rounds. Deterministic counters, like
	// the row counters above.
	CandidatesScored   int
	ShortlistRebuilds  int
	ShortlistTruncated int

	SLASeries   []float64
	WattsSeries []float64
	ActiveSer   []float64
	DCSeries    []float64 // hosting DC of VM 0 (for placement plots)

	// Workload-lifecycle outcomes (zero/one for fixed-population
	// scenarios, where nothing is ever offered).
	OfferedVMs  int
	AdmittedVMs int
	RejectedVMs int
	Deferrals   int
	DepartedVMs int
	// AdmissionRate is admitted/offered (vacuously 1 with no churn).
	AdmissionRate float64
	// MeanPlaceTicks is the mean admission-to-first-host wait of placed
	// arrivals.
	MeanPlaceTicks float64

	// Obs is the cell's deterministic metric snapshot: every counter and
	// gauge of the per-cell obs.Registry that is a pure function of the
	// event stream (wall-clock histograms and scrape-time gauges are
	// excluded by construction — see obs.Registry.DeterministicSnapshot).
	Obs map[string]float64
	// EngineTicks is the engine tick counter from that registry; TickMS is
	// the mean engine-tick wall latency in milliseconds (reporting only,
	// never published to machine-readable output).
	EngineTicks int
	TickMS      float64

	// Fault-layer outcomes (zero, with Availability 1, for immortal
	// fleets).
	Crashes         int
	ForcedEvictions int
	Interruptions   int
	RehomedVMs      int
	ShedVMs         int
	DegradedTicks   int
	// MeanRehomeTicks is the mean eviction-to-replacement latency of
	// re-homed VMs; MaxRehomeTicks the worst case.
	MeanRehomeTicks float64
	MaxRehomeTicks  int
	// Availability is served VM-time over total VM-time.
	Availability float64
}

// RunOpts tunes one cell execution beyond the (spec, policy, ticks) key.
type RunOpts struct {
	// RoundTicks overrides the scheduling period (0 = DefaultRoundTicks).
	RoundTicks int
	// DefaultInitial places HomePlacement when the policy has no Initial
	// of its own (matrix sweeps set it; the experiment wrapper does not,
	// so figures keep their hand-picked starting states).
	DefaultInitial bool
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
	// scenarios (nil = core defaults: nominal surviving capacity, never
	// shed).
	Degraded *core.DegradedPolicy
}

// timedScheduler wraps a scheduler and accumulates the wall-clock time
// spent inside scheduling rounds. It forwards the allocation-free
// ScheduleInto contract when the inner scheduler supports it and falls
// back to Schedule (copying into the recycled map) when it does not, so
// wrapping never changes decisions. When the inner scheduler implements
// sched.RoundStatsReporter it also folds in each round's phase breakdown
// (fill/score/reduce nanoseconds, filled-row and candidate counters).
type timedScheduler struct {
	inner  sched.Scheduler
	nanos  int64
	rounds int

	fillNS, scoreNS, reduceNS int64
	rowsRecomputed            int
	candidatesScored          int
	shortlistRebuilds         int
	shortlistTruncated        int
}

// fold accumulates the phase breakdown of the round that just ran.
func (t *timedScheduler) fold() {
	rep, ok := t.inner.(sched.RoundStatsReporter)
	if !ok {
		return
	}
	st := rep.LastRoundStats()
	t.fillNS += st.FillNS
	t.scoreNS += st.ScoreNS
	t.reduceNS += st.ReduceNS
	t.rowsRecomputed += st.RowsRecomputed
	t.candidatesScored += st.CandidatesScored
	t.shortlistRebuilds += st.ShortlistRebuilds
	t.shortlistTruncated += st.ShortlistTruncated
}

// intoScheduler mirrors core's optional allocation-free contract.
type intoScheduler interface {
	ScheduleInto(p *sched.Problem, placement model.Placement) error
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Schedule(p *sched.Problem) (model.Placement, error) {
	start := time.Now()
	placement, err := t.inner.Schedule(p)
	t.nanos += time.Since(start).Nanoseconds()
	t.rounds++
	t.fold()
	return placement, err
}

func (t *timedScheduler) ScheduleInto(p *sched.Problem, placement model.Placement) error {
	start := time.Now()
	defer func() {
		t.nanos += time.Since(start).Nanoseconds()
		t.rounds++
		t.fold()
	}()
	if is, ok := t.inner.(intoScheduler); ok {
		return is.ScheduleInto(p, placement)
	}
	out, err := t.inner.Schedule(p)
	if err != nil {
		return err
	}
	for vm, pm := range out {
		placement[vm] = pm
	}
	return nil
}

// RunSpec executes one cell: build the scenario, make the scheduler, run
// the managed loop, collect metrics. See RunSpecOpts for the knobs.
func RunSpec(spec scenario.Spec, pol Policy, bundle *predict.Bundle, ticks int) (*PolicyRun, error) {
	return RunSpecOpts(spec, pol, bundle, ticks, RunOpts{DefaultInitial: true})
}

// RunSpecOpts is the sweep cell-runner every experiment and matrix cell
// goes through: one scenario.Build and one core.Manager per call, nothing
// shared with other cells except the read-only bundle. When the policy
// needs a bundle and none is supplied, the per-seed cache provides one.
func RunSpecOpts(spec scenario.Spec, pol Policy, bundle *predict.Bundle, ticks int, opts RunOpts) (*PolicyRun, error) {
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
	if initial == nil && opts.DefaultInitial {
		initial = (*scenario.Scenario).HomePlacement
	}
	if initial != nil {
		if err := sc.World.PlaceInitial(initial(sc)); err != nil {
			return nil, err
		}
	}
	roundTicks := opts.RoundTicks
	if roundTicks <= 0 {
		roundTicks = DefaultRoundTicks
	}
	// Every cell carries its own registry, so cells stay share-nothing and
	// the deterministic snapshot is per-(scenario, policy, seed).
	reg := obs.NewRegistry()
	engMet := sim.NewEngineMetrics(reg)
	sc.World.SetMetrics(engMet)
	if ms, ok := s.(interface{ SetMetrics(*sched.Metrics) }); ok {
		ms.SetMetrics(sched.NewSchedMetrics(reg))
	}
	lifeMet := lifecycle.NewMetrics(reg)
	timed := &timedScheduler{inner: s}
	mgrCfg := core.ManagerConfig{
		World: sc.World, Scheduler: timed, RoundTicks: roundTicks,
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
	run := &PolicyRun{
		Policy: pol.Name, Scenario: spec.Name, Seed: spec.Seed,
		Ticks: ticks, MinSLA: 1, AdmissionRate: 1, Availability: 1,
	}
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
	run.AvgActive = sumActive / n
	ledger := sc.World.Ledger()
	run.AvgEuroH = ledger.AvgProfitPerHour(sim.TickHours)
	run.RevenueEUR = ledger.Revenue()
	run.EnergyEUR = ledger.EnergyCost()
	run.PenaltyEUR = ledger.Penalties()
	run.Rounds = timed.rounds
	if timed.rounds > 0 {
		perRoundMS := func(ns int64) float64 { return float64(ns) / float64(timed.rounds) / 1e6 }
		run.RoundMS = perRoundMS(timed.nanos)
		run.FillMS = perRoundMS(timed.fillNS)
		run.ScoreMS = perRoundMS(timed.scoreNS)
		run.ReduceMS = perRoundMS(timed.reduceNS)
	}
	run.RowsRecomputed = timed.rowsRecomputed
	run.CandidatesScored = timed.candidatesScored
	run.ShortlistRebuilds = timed.shortlistRebuilds
	run.ShortlistTruncated = timed.shortlistTruncated
	if runner != nil {
		st := runner.Stats()
		run.OfferedVMs = st.Offered
		run.AdmittedVMs = st.Admitted
		run.RejectedVMs = st.Rejected
		run.Deferrals = st.Deferrals
		run.DepartedVMs = st.Departed
		run.AdmissionRate = st.AdmissionRate()
		run.MeanPlaceTicks = st.MeanPlacementTicks()
	}
	var lifeStats lifecycle.Stats
	var faultStats lifecycle.FaultStats
	if runner != nil {
		lifeStats = runner.Stats()
	}
	if faults != nil {
		faultStats = faults.Stats()
	}
	lifeMet.Observe(lifeStats, faultStats)
	run.Obs = reg.DeterministicSnapshot()
	run.EngineTicks = int(engMet.Ticks.Value())
	run.TickMS = engMet.TickSeconds.Mean() * 1e3
	if faults != nil {
		st := faults.Stats()
		run.Crashes = st.Crashes
		run.ForcedEvictions = st.ForcedEvictions
		run.Interruptions = st.Interruptions
		run.RehomedVMs = st.Rehomed
		run.ShedVMs = st.Shed
		run.DegradedTicks = st.DegradedTicks
		run.MeanRehomeTicks = st.MeanRehomeTicks()
		run.MaxRehomeTicks = st.MaxRehomeTicks
		run.Availability = st.Availability()
	}
	return run, nil
}
