package sweep

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// fastMatrix is a cheap all-deterministic matrix: no ML training, two
// presets, two policies, two seeds, one simulated hour per cell.
func fastMatrix(workers int) Matrix {
	return Matrix{
		Scenarios: []string{scenario.IntraDC, scenario.MultiDC},
		Policies:  []string{"bf", "bf-ob"},
		Seeds:     []uint64{1, 2},
		Ticks:     60,
		Workers:   workers,
	}
}

// TestSweepDeterminism is the harness's core contract: the same matrix
// yields byte-identical JSON and CSV across repeated runs and across
// worker counts — parallelism is a throughput knob, never an output
// change.
func TestSweepDeterminism(t *testing.T) {
	type output struct {
		json []byte
		csv  string
	}
	get := func(workers int) output {
		res, err := Run(fastMatrix(workers))
		if err != nil {
			t.Fatal(err)
		}
		j, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return output{json: j, csv: res.CSV()}
	}
	base := get(1)
	for name, o := range map[string]output{
		"rerun workers=1": get(1),
		"workers=4":       get(4),
		"workers=4 again": get(4),
	} {
		if !bytes.Equal(base.json, o.json) {
			t.Errorf("%s: JSON differs from workers=1 run", name)
		}
		if base.csv != o.csv {
			t.Errorf("%s: CSV differs from workers=1 run", name)
		}
	}
}

// TestSweepChurnDeterminism extends the determinism contract to dynamic
// workloads: churn cells (seeded event queue, admission controller,
// shrinking/growing problems) stay byte-identical across runs and worker
// counts, and actually churn.
func TestSweepChurnDeterminism(t *testing.T) {
	matrix := func(workers int) Matrix {
		return Matrix{
			Scenarios: []string{scenario.ChurnStorm, scenario.ChurnPoisson},
			Policies:  []string{"bf", "bf-ob"},
			Seeds:     []uint64{1, 2},
			Ticks:     180,
			Workers:   workers,
		}
	}
	get := func(workers int) (*Result, []byte) {
		res, err := Run(matrix(workers))
		if err != nil {
			t.Fatal(err)
		}
		j, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return res, j
	}
	base, baseJSON := get(1)
	churned := false
	for _, c := range base.Cells {
		if c.OfferedVMs > 0 && c.AdmittedVMs > 0 {
			churned = true
		}
	}
	if !churned {
		t.Fatal("churn cells reported no lifecycle activity")
	}
	for _, workers := range []int{1, 4} {
		if _, j := get(workers); !bytes.Equal(baseJSON, j) {
			t.Errorf("churn sweep JSON differs at workers=%d", workers)
		}
	}
}

// TestSweepFaultDeterminism extends the determinism contract to the
// fault-injection presets: cells replaying host crashes, a DC outage and
// a rolling maintenance wave stay byte-identical across runs and worker
// counts, and actually record fault activity.
func TestSweepFaultDeterminism(t *testing.T) {
	matrix := func(workers int) Matrix {
		return Matrix{
			Scenarios: []string{scenario.FailSparse, scenario.FailAZOutage, scenario.MaintRolling},
			Policies:  []string{"bf-ob"},
			Seeds:     []uint64{1, 2},
			Ticks:     180,
			Workers:   workers,
		}
	}
	get := func(workers int) (*Result, []byte) {
		res, err := Run(matrix(workers))
		if err != nil {
			t.Fatal(err)
		}
		j, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return res, j
	}
	base, baseJSON := get(1)
	faulted := false
	for _, c := range base.Cells {
		if c.Availability <= 0 || c.Availability > 1 {
			t.Fatalf("cell %s/%s/%d availability %v out of (0,1]",
				c.Scenario, c.Policy, c.Seed, c.Availability)
		}
		if c.Crashes > 0 || c.Interruptions > 0 {
			faulted = true
		}
	}
	if !faulted {
		t.Fatal("fault cells reported no fault activity")
	}
	for _, workers := range []int{1, 4} {
		if _, j := get(workers); !bytes.Equal(baseJSON, j) {
			t.Errorf("fault sweep JSON differs at workers=%d", workers)
		}
	}
}

func TestSweepShape(t *testing.T) {
	res, err := Run(fastMatrix(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*2*2 {
		t.Fatalf("cells = %d, want 8", len(res.Cells))
	}
	if len(res.Aggregates) != 2*2 {
		t.Fatalf("aggregates = %d, want 4", len(res.Aggregates))
	}
	// Cell order is scenario-major, then policy, then seed.
	want := []struct {
		scn, pol string
		seed     uint64
	}{
		{"intra-dc", "bf", 1}, {"intra-dc", "bf", 2},
		{"intra-dc", "bf-ob", 1}, {"intra-dc", "bf-ob", 2},
		{"multi-dc", "bf", 1}, {"multi-dc", "bf", 2},
		{"multi-dc", "bf-ob", 1}, {"multi-dc", "bf-ob", 2},
	}
	for i, w := range want {
		c := res.Cells[i]
		if c.Scenario != w.scn || c.Policy != w.pol || c.Seed != w.seed {
			t.Fatalf("cell %d = (%s,%s,%d), want (%s,%s,%d)",
				i, c.Scenario, c.Policy, c.Seed, w.scn, w.pol, w.seed)
		}
		if c.Ticks != 60 || c.Rounds != 5 {
			t.Fatalf("cell %d ran %d ticks / %d rounds", i, c.Ticks, c.Rounds)
		}
		if c.AvgSLA <= 0 || c.AvgSLA > 1 || c.AvgWatts <= 0 {
			t.Fatalf("cell %d has implausible metrics: %+v", i, c)
		}
	}
	// Aggregates must be the exact across-seeds statistics of their cells.
	agg := res.Aggregates[0]
	c1, c2 := res.Cells[0], res.Cells[1]
	mean := (c1.AvgSLA + c2.AvgSLA) / 2
	if math.Abs(agg.AvgSLA.Mean-mean) > 1e-12 {
		t.Fatalf("aggregate mean %v != cell mean %v", agg.AvgSLA.Mean, mean)
	}
	if agg.AvgSLA.Min != math.Min(c1.AvgSLA, c2.AvgSLA) ||
		agg.AvgSLA.Max != math.Max(c1.AvgSLA, c2.AvgSLA) {
		t.Fatalf("aggregate min/max wrong: %+v vs cells %v %v", agg.AvgSLA, c1.AvgSLA, c2.AvgSLA)
	}
	sd := math.Abs(c1.AvgSLA-c2.AvgSLA) / 2 // population stddev of two points
	if math.Abs(agg.AvgSLA.StdDev-sd) > 1e-12 {
		t.Fatalf("aggregate stddev %v != %v", agg.AvgSLA.StdDev, sd)
	}
	if agg.Seeds != 2 {
		t.Fatalf("aggregate seeds = %d", agg.Seeds)
	}
}

func TestSweepValidation(t *testing.T) {
	base := fastMatrix(1)
	for name, mutate := range map[string]func(*Matrix){
		"unknown scenario": func(m *Matrix) { m.Scenarios = []string{"no-such-preset"} },
		"unknown policy":   func(m *Matrix) { m.Policies = []string{"no-such-policy"} },
		"no policies":      func(m *Matrix) { m.Policies = nil },
		"no seeds":         func(m *Matrix) { m.Seeds = nil },
		"no ticks":         func(m *Matrix) { m.Ticks = 0 },
	} {
		m := base
		mutate(&m)
		if _, err := Run(m); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSweepAllScenariosExpansion(t *testing.T) {
	m := fastMatrix(4)
	m.Scenarios = []string{"all"}
	m.Seeds = []uint64{7}
	m.Ticks = 30
	res, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(scenario.Names()) * 2; len(res.Cells) != want {
		t.Fatalf("all-presets sweep has %d cells, want %d", len(res.Cells), want)
	}
	if len(res.Scenarios) != len(scenario.Names()) {
		t.Fatalf("result echoes %d scenarios, want all %d", len(res.Scenarios), len(scenario.Names()))
	}
}

// TestSweepJSONExcludesWallClock guards the determinism contract at the
// encoding level: no wall-clock field may leak into JSON or CSV.
func TestSweepJSONExcludesWallClock(t *testing.T) {
	res, err := Run(Matrix{
		Scenarios: []string{scenario.IntraDC}, Policies: []string{"bf"},
		Seeds: []uint64{1}, Ticks: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"RoundMS", "round_ms", "ms_per_round",
		"FillMS", "fill_ms", "ScoreMS", "score_ms", "ReduceMS", "reduce_ms"} {
		if bytes.Contains(j, []byte(banned)) {
			t.Fatalf("JSON leaks wall-clock field %q", banned)
		}
	}
	header := strings.SplitN(res.CSV(), "\n", 2)[0]
	for _, col := range strings.Split(header, ",") {
		if strings.Contains(col, "_ms") || strings.Contains(col, "ms_per_round") {
			t.Fatalf("CSV header leaks wall-clock column %q", col)
		}
	}
	// The row counters, in contrast, are deterministic and must be real
	// machine-readable columns.
	if !bytes.Contains(j, []byte("rows_reused")) || !strings.Contains(header, "rows_recomputed") {
		t.Fatal("deterministic delta row counters missing from JSON/CSV")
	}
	// The rendered (human) table does include it.
	if !strings.Contains(res.Render(), "ms/round") {
		t.Fatal("rendered table should report round latency")
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	if len(names) < 8 {
		t.Fatalf("policy registry too small: %v", names)
	}
	for _, name := range names {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name || p.Make == nil {
			t.Fatalf("policy %q malformed: %+v", name, p)
		}
	}
	if _, err := PolicyByName("definitely-not-a-policy"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestSweepMLPolicies drives the bundle-sharing path (train once per
// seed, share across cells) over ML and hierarchical policies.
func TestSweepMLPolicies(t *testing.T) {
	m := Matrix{
		Scenarios: []string{scenario.IntraDC, scenario.Hierarchy},
		Policies:  []string{"bf-ml", "hier-ml", "firstfit"},
		Seeds:     []uint64{42},
		Ticks:     60,
		Workers:   4,
	}
	res, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.AvgSLA <= 0 || c.Rounds == 0 {
			t.Fatalf("ML cell did not run: %+v", c)
		}
	}
}

// TestObservedOnlySweepSkipsTraining pins the training gate: a matrix
// whose policies never consume predictors must not train (or cache) a
// bundle for any of its seeds — training is the sweep's most expensive
// prologue and observed-only studies should never pay it.
func TestObservedOnlySweepSkipsTraining(t *testing.T) {
	const seed = uint64(987654321001) // unique to this test: never trained elsewhere
	m := Matrix{
		Scenarios: []string{scenario.IntraDC},
		Policies:  []string{"bf", "bf-ob", "static", "roundrobin", "hier-ob"},
		Seeds:     []uint64{seed},
		Ticks:     30,
		Workers:   2,
	}
	if _, err := Run(m); err != nil {
		t.Fatal(err)
	}
	if _, trained := bundleCache.Load(seed); trained {
		t.Fatal("observed-only sweep trained a predictor bundle")
	}
}

// TestSweepPruneCounters drives bf-ml-prune through a live sweep cell
// next to plain bf-ml: identical decisions and economics (safe-bound
// pruning is placement-identical), fewer profit evaluations, and one
// shortlist rebuild per round — all visible through the deterministic
// candidate columns.
func TestSweepPruneCounters(t *testing.T) {
	m := Matrix{
		Scenarios: []string{scenario.IntraDC},
		Policies:  []string{"bf-ml", "bf-ml-prune"},
		Seeds:     []uint64{42},
		Ticks:     120,
		Workers:   1,
	}
	res, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	plain, pruned := res.Cells[0], res.Cells[1]
	if plain.Policy != "bf-ml" || pruned.Policy != "bf-ml-prune" {
		t.Fatalf("unexpected cell order: %q, %q", plain.Policy, pruned.Policy)
	}
	if plain.AvgSLA != pruned.AvgSLA || plain.ProfitEURh != pruned.ProfitEURh ||
		plain.Migrations != pruned.Migrations || plain.AvgWatts != pruned.AvgWatts {
		t.Fatalf("safe-bound pruning changed outcomes: %+v vs %+v", plain, pruned)
	}
	if plain.ShortlistRebuilds != 0 || plain.ShortlistTruncated != 0 {
		t.Fatalf("plain bf-ml reported shortlist activity: %+v", plain)
	}
	if pruned.ShortlistRebuilds != pruned.Rounds {
		t.Fatalf("prune rebuilds %d, rounds %d", pruned.ShortlistRebuilds, pruned.Rounds)
	}
	if pruned.ShortlistTruncated != 0 {
		t.Fatalf("safe bound truncated %d classes", pruned.ShortlistTruncated)
	}
	if plain.CandidatesScored == 0 || pruned.CandidatesScored == 0 {
		t.Fatalf("candidate counters missing: plain %d, pruned %d",
			plain.CandidatesScored, pruned.CandidatesScored)
	}
	if pruned.CandidatesScored > plain.CandidatesScored {
		t.Fatalf("pruning scored more candidates (%d) than exhaustive (%d)",
			pruned.CandidatesScored, plain.CandidatesScored)
	}
}

// TestRunSpecAutoTrainsBundle covers the single-cell convenience path:
// an ML policy with a nil bundle pulls from the per-seed cache.
func TestRunSpecAutoTrainsBundle(t *testing.T) {
	pol, err := PolicyByName("bf-ml")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunSpec(scenario.MustPreset(scenario.IntraDC, 42), pol, nil, 30, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Policy != "bf-ml" || run.Rounds == 0 {
		t.Fatalf("auto-bundle run wrong: %+v", run)
	}
}

// TestHyperscaleSweepDeterminism is the hyperscale acceptance smoke: the
// 20000-VM / 5100-PM preset completes scheduling rounds through the
// sweep cell-runner, and the cell is bit-deterministic across reruns and
// engine tick-worker counts (sharded vs serial ticks). The policy is a
// truncated-shortlist Best-Fit (PruneK 32, like the benchmark) over the
// Observed estimator — no bundle training, and the exhaustive scoring
// matrix (~10^8 profit calls) never materializes.
func TestHyperscaleSweepDeterminism(t *testing.T) {
	pol := Policy{
		Name: "bf-prune32",
		Make: func(sc *scenario.Scenario, _ *predict.Bundle) (sched.Scheduler, error) {
			bf := sched.NewBestFit(CostModel(sc), sched.NewObserved())
			bf.Prune = true
			bf.PruneK = 32
			return bf, nil
		},
	}
	cell := func(tickWorkers int) PolicyRun {
		spec := scenario.MustPreset(scenario.HyperscaleFleet, 7)
		spec.TickWorkers = tickWorkers
		pr, err := RunSpec(spec, pol, nil, 12, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		got := *pr
		// Wall-clock fields are the only legitimately non-deterministic
		// outputs; everything else must match bit-for-bit.
		got.RoundMS, got.FillMS, got.ScoreMS, got.ReduceMS, got.TickMS = 0, 0, 0, 0, 0
		return got
	}
	base := cell(4)
	if base.Rounds == 0 || base.CandidatesScored == 0 {
		t.Fatalf("hyperscale cell ran no rounds: rounds %d, scored %d",
			base.Rounds, base.CandidatesScored)
	}
	if base.ShortlistRebuilds != base.Rounds {
		t.Fatalf("rebuilds %d, rounds %d", base.ShortlistRebuilds, base.Rounds)
	}
	for name, got := range map[string]PolicyRun{
		"rerun sharded": cell(4),
		"serial ticks":  cell(1),
	} {
		if !reflect.DeepEqual(base, got) {
			t.Errorf("%s: hyperscale cell diverged from the sharded baseline", name)
		}
	}
}

// TestSweepCellObsSnapshot pins the per-cell metric snapshot and the
// columns read from it: every cell carries its registry's deterministic
// counters (engine ticks matching the cell length, lifecycle churn
// matching the lifecycle columns, round counters matching their
// scheduler series), Rounds is the Manager's round count, the Manager
// times the rounds of every policy — Best-Fit or not — and no wall-clock
// series ever reaches the map.
func TestSweepCellObsSnapshot(t *testing.T) {
	// Long enough for churn-poisson to retire VMs and for fail-az-outage's
	// DC outage (tick 65) to interrupt and re-home some, so the count
	// columns below compare real counts.
	const ticks = 80
	// Rounds run at every positive multiple of the period below ticks;
	// none of these presets loses every candidate host.
	const wantRounds = (ticks - 1) / DefaultRoundTicks
	for _, tc := range []struct {
		scenario, policy string
		bestFit          bool // registers the sched.Metrics series
	}{
		{scenario.ChurnPoisson, "bf-ob", true},
		{scenario.IntraDC, "bf-ml-prune", true},
		{scenario.FailAZOutage, "bf", true},
		{scenario.IntraDC, "firstfit", false},
		{scenario.Hierarchy, "hier-ob", false},
	} {
		t.Run(tc.scenario+"/"+tc.policy, func(t *testing.T) {
			pol, err := PolicyByName(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			run, err := RunSpec(scenario.MustPreset(tc.scenario, 5), pol, nil, ticks, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if run.EngineTicks != ticks {
				t.Fatalf("engine ticks = %d, want %d", run.EngineTicks, ticks)
			}
			if run.Obs["mdcsim_engine_ticks_total"] != ticks {
				t.Fatalf("obs engine ticks = %v, want %d", run.Obs["mdcsim_engine_ticks_total"], ticks)
			}
			// Every lifecycle and fault count column is its series.
			for _, c := range []struct {
				col    int
				series string
			}{
				{run.OfferedVMs, "mdcsim_lifecycle_offered_total"},
				{run.AdmittedVMs, "mdcsim_lifecycle_admitted_total"},
				{run.RejectedVMs, "mdcsim_lifecycle_rejected_total"},
				{run.DepartedVMs, "mdcsim_lifecycle_departed_total"},
				{run.Crashes, "mdcsim_fault_crashes_total"},
				{run.ForcedEvictions, "mdcsim_fault_forced_evictions_total"},
				{run.Interruptions, "mdcsim_fault_interruptions_total"},
				{run.RehomedVMs, "mdcsim_fault_rehomed_total"},
				{run.ShedVMs, "mdcsim_fault_shed_total"},
				{run.DegradedTicks, "mdcsim_fault_degraded_ticks_total"},
			} {
				if got, ok := run.Obs[c.series]; !ok || got != float64(c.col) {
					t.Errorf("column %d, series %s = %v (registered %v)", c.col, c.series, got, ok)
				}
			}
			if run.Rounds != wantRounds {
				t.Fatalf("rounds = %d, want the Manager's %d", run.Rounds, wantRounds)
			}
			if run.RoundMS <= 0 {
				t.Fatalf("%s rounds not timed: RoundMS = %v", tc.policy, run.RoundMS)
			}
			if got, ok := run.Obs["mdcsim_sched_rounds_total"]; ok != tc.bestFit ||
				(ok && got != float64(run.Rounds)) {
				t.Fatalf("obs sched rounds = %v (registered %v), rounds column %d", got, ok, run.Rounds)
			}
			for _, c := range []struct {
				col    int
				series string
			}{
				{run.RowsRecomputed, "mdcsim_sched_memo_rows_recomputed_total"},
				{run.CandidatesScored, "mdcsim_sched_candidates_scored_total"},
				{run.ShortlistRebuilds, "mdcsim_sched_shortlist_rebuilds_total"},
				{run.ShortlistTruncated, "mdcsim_sched_shortlist_truncated_total"},
			} {
				if float64(c.col) != run.Obs[c.series] {
					t.Errorf("column %d, series %s = %v", c.col, c.series, run.Obs[c.series])
				}
			}
			if tc.bestFit && (run.CandidatesScored == 0 || run.ScoreMS <= 0) {
				t.Fatalf("Best-Fit round stats missing: scored %d, score %vms",
					run.CandidatesScored, run.ScoreMS)
			}
			for name := range run.Obs {
				if strings.Contains(name, "_seconds") || strings.Contains(name, "runtime") {
					t.Fatalf("wall-clock or scrape-time series %q leaked into the deterministic snapshot", name)
				}
			}
			if run.TickMS <= 0 {
				t.Fatal("mean tick latency not measured")
			}
		})
	}
}
