// Package sweep is the evaluation harness: it runs the full scenario ×
// scheduling-policy × seed matrix concurrently on replicated engines and
// emits deterministic machine-readable results (JSON + CSV) next to the
// rendered tables. One sweep cell is one (preset, policy, seed) triple:
// it builds its own scenario (world, topology, workload stream) and its
// own manager, so cells share nothing mutable — only the read-only
// predictor bundle of their seed — and the matrix parallelises trivially
// via par.ForEach. Every future scaling study (sharding, multi-backend,
// online retraining) reports through this package.
package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/par"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Matrix declares one sweep: which presets, which policies, which seeds,
// and how long each cell runs.
type Matrix struct {
	// Scenarios are preset names (empty or ["all"] = every preset).
	Scenarios []string
	// Policies are registry names (see PolicyNames); at least one.
	Policies []string
	// Seeds are the per-cell root seeds; at least one. Aggregates are
	// computed across seeds per (scenario, policy).
	Seeds []uint64
	// Ticks is the simulated length of every cell.
	Ticks int
	// RoundTicks overrides the scheduling period (0 = DefaultRoundTicks).
	RoundTicks int
	// Workers bounds cell-level parallelism (<= 0 = GOMAXPROCS).
	Workers int
}

// Cell is the machine-readable result of one (scenario, policy, seed)
// run. Wall-clock fields carry a json:"-" tag: sweep JSON and CSV must be
// byte-identical across runs and worker counts, and time measurements are
// the one non-deterministic output.
type Cell struct {
	Scenario     string  `json:"scenario"`
	Policy       string  `json:"policy"`
	Seed         uint64  `json:"seed"`
	Ticks        int     `json:"ticks"`
	Rounds       int     `json:"rounds"`
	AvgSLA       float64 `json:"avg_sla"`
	MinSLA       float64 `json:"min_sla"`
	AvgWatts     float64 `json:"avg_watts"`
	ProfitEURh   float64 `json:"profit_eur_h"`
	RevenueEUR   float64 `json:"revenue_eur"`
	EnergyEUR    float64 `json:"energy_eur"`
	PenaltyEUR   float64 `json:"penalty_eur"`
	Migrations   int     `json:"migrations"`
	AvgActivePMs float64 `json:"avg_active_pms"`
	// Workload-lifecycle columns (zero/one for fixed populations).
	OfferedVMs     int     `json:"offered_vms"`
	AdmittedVMs    int     `json:"admitted_vms"`
	RejectedVMs    int     `json:"rejected_vms"`
	DepartedVMs    int     `json:"departed_vms"`
	AdmissionRate  float64 `json:"admission_rate"`
	MeanPlaceTicks float64 `json:"mean_place_ticks"`
	// Fault-layer columns (zero, availability 1, for immortal fleets).
	Crashes         int     `json:"crashes"`
	ForcedEvictions int     `json:"forced_evictions"`
	Interruptions   int     `json:"interruptions"`
	RehomedVMs      int     `json:"rehomed_vms"`
	ShedVMs         int     `json:"shed_vms"`
	DegradedTicks   int     `json:"degraded_ticks"`
	MeanRehomeTicks float64 `json:"mean_rehome_ticks"`
	MaxRehomeTicks  int     `json:"max_rehome_ticks"`
	Availability    float64 `json:"availability"`
	// Row counters, summed over the cell's rounds: RowsRecomputed is the
	// VM rows the table fills estimated (zero for schedulers that do not
	// report round stats). RowsReused is always 0 — rounds reuse nothing
	// from earlier rounds — and is kept only so the JSON/CSV layout stays
	// unchanged; drop it at the next change to the benchmark goldens.
	RowsReused     int `json:"rows_reused"`
	RowsRecomputed int `json:"rows_recomputed"`
	// Candidate-shortlist counters, summed over rounds: profit evaluations
	// performed, prune-index rebuilds and truncated host-state classes.
	// Deterministic like the row counters — truncation discloses exactly
	// how far a PruneK policy may diverge from the exhaustive scan.
	CandidatesScored   int `json:"candidates_scored"`
	ShortlistRebuilds  int `json:"shortlist_rebuilds"`
	ShortlistTruncated int `json:"shortlist_truncated"`
	// EngineTicks is the engine tick counter from the cell's own metric
	// registry; Obs is that registry's full deterministic snapshot (every
	// counter and gauge that is a pure function of the event stream —
	// wall-clock series are excluded by construction, and Go marshals map
	// keys sorted, so the JSON stays byte-identical across runs).
	EngineTicks int                `json:"engine_ticks"`
	Obs         map[string]float64 `json:"obs"`
	// TickMS is the mean engine-tick wall latency — reporting only.
	TickMS  float64 `json:"-"`
	RoundMS float64 `json:"-"` // mean scheduling-round wall latency
	// Phase breakdown of RoundMS (table fill, candidate scoring,
	// everything else); wall-clock like RoundMS, so excluded from the
	// machine-readable output.
	FillMS   float64 `json:"-"`
	ScoreMS  float64 `json:"-"`
	ReduceMS float64 `json:"-"`
}

// Stat summarises one metric across the seeds of a (scenario, policy).
type Stat struct {
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	StdDev float64 `json:"stddev"`
}

func statOf(xs []float64) Stat {
	var w stats.Welford
	for _, x := range xs {
		w.Add(x)
	}
	return Stat{Mean: w.Mean(), Min: w.Min(), Max: w.Max(), StdDev: w.StdDev()}
}

// Aggregate is the across-seeds summary of one (scenario, policy).
type Aggregate struct {
	Scenario       string  `json:"scenario"`
	Policy         string  `json:"policy"`
	Seeds          int     `json:"seeds"`
	AvgSLA         Stat    `json:"avg_sla"`
	MinSLA         Stat    `json:"min_sla"`
	AvgWatts       Stat    `json:"avg_watts"`
	ProfitEURh     Stat    `json:"profit_eur_h"`
	Migrations     Stat    `json:"migrations"`
	AvgActivePMs   Stat    `json:"avg_active_pms"`
	AdmissionRate  Stat    `json:"admission_rate"`
	RejectedVMs    Stat    `json:"rejected_vms"`
	MeanPlaceTicks Stat    `json:"mean_place_ticks"`
	Availability   Stat    `json:"availability"`
	Interruptions  Stat    `json:"interruptions"`
	ForcedEvict    Stat    `json:"forced_evictions"`
	RowsReused     Stat    `json:"rows_reused"`
	RowsRecomputed Stat    `json:"rows_recomputed"`
	CandScored     Stat    `json:"candidates_scored"`
	ShortRebuilds  Stat    `json:"shortlist_rebuilds"`
	RoundMS        float64 `json:"-"` // mean wall latency, reporting only
	FillMS         float64 `json:"-"` // mean table-fill latency, reporting only
	ScoreMS        float64 `json:"-"` // mean scoring latency, reporting only
}

// Result is one executed sweep: the matrix echo, every cell in
// deterministic (scenario-major, then policy, then seed) order, and the
// per-(scenario, policy) aggregates.
type Result struct {
	Scenarios  []string    `json:"scenarios"`
	Policies   []string    `json:"policies"`
	Seeds      []uint64    `json:"seeds"`
	Ticks      int         `json:"ticks"`
	RoundTicks int         `json:"round_ticks"`
	Cells      []Cell      `json:"cells"`
	Aggregates []Aggregate `json:"aggregates"`
}

// Run executes the matrix. Bundles are trained once per seed up front
// (cells of a seed share them read-only); the cells then fan out over the
// worker pool, each writing only its own slot, so the assembled Result is
// independent of scheduling order and worker count.
func Run(m Matrix) (*Result, error) {
	scns := m.Scenarios
	if len(scns) == 0 || (len(scns) == 1 && scns[0] == "all") {
		scns = scenario.Names()
	}
	for _, name := range scns {
		if _, err := scenario.Preset(name, 0); err != nil {
			return nil, err
		}
	}
	if len(m.Policies) == 0 {
		return nil, fmt.Errorf("sweep: no policies given (have %v)", PolicyNames())
	}
	pols := make([]Policy, len(m.Policies))
	needBundle := false
	for i, name := range m.Policies {
		p, err := PolicyByName(name)
		if err != nil {
			return nil, err
		}
		pols[i] = p
		needBundle = needBundle || p.NeedsBundle
	}
	if len(m.Seeds) == 0 {
		return nil, fmt.Errorf("sweep: no seeds given")
	}
	if m.Ticks <= 0 {
		return nil, fmt.Errorf("sweep: ticks must be positive, got %d", m.Ticks)
	}

	// Bundles are trained only when some selected policy actually consumes
	// predictors — an observed-only matrix never pays for training. Distinct
	// seeds train concurrently (training is per-seed pure and the cache is
	// concurrency-safe), so a wide-seed matrix is not serialized on its
	// most expensive prologue.
	bundles := make(map[uint64]*predict.Bundle, len(m.Seeds))
	if needBundle {
		seeds := make([]uint64, 0, len(m.Seeds))
		for _, seed := range m.Seeds {
			if _, ok := bundles[seed]; ok {
				continue
			}
			bundles[seed] = nil
			seeds = append(seeds, seed)
		}
		trained := make([]*predict.Bundle, len(seeds))
		terrs := make([]error, len(seeds))
		par.ForEach(len(seeds), m.Workers, func(i int) {
			trained[i], terrs[i] = TrainedBundle(seeds[i])
		})
		for i, err := range terrs {
			if err != nil {
				return nil, fmt.Errorf("sweep: training bundle for seed %d: %w", seeds[i], err)
			}
			bundles[seeds[i]] = trained[i]
		}
	}

	nS, nP, nK := len(scns), len(pols), len(m.Seeds)
	cells := make([]Cell, nS*nP*nK)
	errs := make([]error, len(cells))
	par.ForEach(len(cells), m.Workers, func(i int) {
		si := i / (nP * nK)
		pi := (i / nK) % nP
		ki := i % nK
		seed := m.Seeds[ki]
		spec, err := scenario.Preset(scns[si], seed)
		if err != nil {
			errs[i] = err
			return
		}
		run, err := RunSpecOpts(spec, pols[pi], bundles[seed], m.Ticks,
			RunOpts{RoundTicks: m.RoundTicks, DefaultInitial: true})
		if err != nil {
			errs[i] = fmt.Errorf("sweep: cell %s/%s seed %d: %w", scns[si], pols[pi].Name, seed, err)
			return
		}
		cells[i] = Cell{
			Scenario: scns[si], Policy: pols[pi].Name, Seed: seed,
			Ticks: run.Ticks, Rounds: run.Rounds,
			AvgSLA: run.AvgSLA, MinSLA: run.MinSLA, AvgWatts: run.AvgWatts,
			ProfitEURh: run.AvgEuroH, RevenueEUR: run.RevenueEUR,
			EnergyEUR: run.EnergyEUR, PenaltyEUR: run.PenaltyEUR,
			Migrations: run.Migrations, AvgActivePMs: run.AvgActive,
			OfferedVMs: run.OfferedVMs, AdmittedVMs: run.AdmittedVMs,
			RejectedVMs: run.RejectedVMs, DepartedVMs: run.DepartedVMs,
			AdmissionRate: run.AdmissionRate, MeanPlaceTicks: run.MeanPlaceTicks,
			Crashes: run.Crashes, ForcedEvictions: run.ForcedEvictions,
			Interruptions: run.Interruptions, RehomedVMs: run.RehomedVMs,
			ShedVMs: run.ShedVMs, DegradedTicks: run.DegradedTicks,
			MeanRehomeTicks: run.MeanRehomeTicks, MaxRehomeTicks: run.MaxRehomeTicks,
			Availability:      run.Availability,
			RowsRecomputed:    run.RowsRecomputed,
			CandidatesScored:  run.CandidatesScored,
			ShortlistRebuilds: run.ShortlistRebuilds, ShortlistTruncated: run.ShortlistTruncated,
			EngineTicks: run.EngineTicks, Obs: run.Obs,
			TickMS:  run.TickMS,
			RoundMS: run.RoundMS,
			FillMS:  run.FillMS, ScoreMS: run.ScoreMS, ReduceMS: run.ReduceMS,
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{
		Scenarios: scns, Policies: m.Policies, Seeds: m.Seeds,
		Ticks: m.Ticks, RoundTicks: m.RoundTicks, Cells: cells,
	}
	if res.RoundTicks <= 0 {
		res.RoundTicks = DefaultRoundTicks
	}
	buf := make([]float64, 0, nK)
	metric := func(si, pi int, get func(*Cell) float64) Stat {
		buf = buf[:0]
		for ki := 0; ki < nK; ki++ {
			buf = append(buf, get(&cells[(si*nP+pi)*nK+ki]))
		}
		return statOf(buf)
	}
	for si := 0; si < nS; si++ {
		for pi := 0; pi < nP; pi++ {
			agg := Aggregate{
				Scenario: scns[si], Policy: pols[pi].Name, Seeds: nK,
				AvgSLA:         metric(si, pi, func(c *Cell) float64 { return c.AvgSLA }),
				MinSLA:         metric(si, pi, func(c *Cell) float64 { return c.MinSLA }),
				AvgWatts:       metric(si, pi, func(c *Cell) float64 { return c.AvgWatts }),
				ProfitEURh:     metric(si, pi, func(c *Cell) float64 { return c.ProfitEURh }),
				Migrations:     metric(si, pi, func(c *Cell) float64 { return float64(c.Migrations) }),
				AvgActivePMs:   metric(si, pi, func(c *Cell) float64 { return c.AvgActivePMs }),
				AdmissionRate:  metric(si, pi, func(c *Cell) float64 { return c.AdmissionRate }),
				RejectedVMs:    metric(si, pi, func(c *Cell) float64 { return float64(c.RejectedVMs) }),
				MeanPlaceTicks: metric(si, pi, func(c *Cell) float64 { return c.MeanPlaceTicks }),
				Availability:   metric(si, pi, func(c *Cell) float64 { return c.Availability }),
				Interruptions:  metric(si, pi, func(c *Cell) float64 { return float64(c.Interruptions) }),
				ForcedEvict:    metric(si, pi, func(c *Cell) float64 { return float64(c.ForcedEvictions) }),
				RowsReused:     metric(si, pi, func(c *Cell) float64 { return float64(c.RowsReused) }),
				RowsRecomputed: metric(si, pi, func(c *Cell) float64 { return float64(c.RowsRecomputed) }),
				CandScored:     metric(si, pi, func(c *Cell) float64 { return float64(c.CandidatesScored) }),
				ShortRebuilds:  metric(si, pi, func(c *Cell) float64 { return float64(c.ShortlistRebuilds) }),
			}
			agg.RoundMS = metric(si, pi, func(c *Cell) float64 { return c.RoundMS }).Mean
			agg.FillMS = metric(si, pi, func(c *Cell) float64 { return c.FillMS }).Mean
			agg.ScoreMS = metric(si, pi, func(c *Cell) float64 { return c.ScoreMS }).Mean
			res.Aggregates = append(res.Aggregates, agg)
		}
	}
	return res, nil
}

// JSON returns the sweep as indented JSON. The encoding is deterministic:
// structs marshal in field order, slices preserve cell order, and no
// wall-clock measurement is included.
func (r *Result) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// fmtF renders a float with full round-trip precision for CSV.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CellsTable renders every cell as one table row (the CSV backbone).
func (r *Result) CellsTable() report.Table {
	t := report.Table{
		Caption: "sweep cells",
		Headers: []string{"scenario", "policy", "seed", "ticks", "rounds",
			"avg_sla", "min_sla", "avg_watts", "profit_eur_h", "revenue_eur",
			"energy_eur", "penalty_eur", "migrations", "avg_active_pms",
			"offered_vms", "admitted_vms", "rejected_vms", "departed_vms",
			"admission_rate", "mean_place_ticks",
			"crashes", "forced_evictions", "interruptions", "rehomed_vms",
			"shed_vms", "degraded_ticks", "mean_rehome_ticks",
			"max_rehome_ticks", "availability",
			"rows_reused", "rows_recomputed",
			"candidates_scored", "shortlist_rebuilds", "shortlist_truncated",
			"engine_ticks"},
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		t.AddRow(c.Scenario, c.Policy,
			strconv.FormatUint(c.Seed, 10), strconv.Itoa(c.Ticks), strconv.Itoa(c.Rounds),
			fmtF(c.AvgSLA), fmtF(c.MinSLA), fmtF(c.AvgWatts), fmtF(c.ProfitEURh),
			fmtF(c.RevenueEUR), fmtF(c.EnergyEUR), fmtF(c.PenaltyEUR),
			strconv.Itoa(c.Migrations), fmtF(c.AvgActivePMs),
			strconv.Itoa(c.OfferedVMs), strconv.Itoa(c.AdmittedVMs),
			strconv.Itoa(c.RejectedVMs), strconv.Itoa(c.DepartedVMs),
			fmtF(c.AdmissionRate), fmtF(c.MeanPlaceTicks),
			strconv.Itoa(c.Crashes), strconv.Itoa(c.ForcedEvictions),
			strconv.Itoa(c.Interruptions), strconv.Itoa(c.RehomedVMs),
			strconv.Itoa(c.ShedVMs), strconv.Itoa(c.DegradedTicks),
			fmtF(c.MeanRehomeTicks), strconv.Itoa(c.MaxRehomeTicks),
			fmtF(c.Availability),
			strconv.Itoa(c.RowsReused), strconv.Itoa(c.RowsRecomputed),
			strconv.Itoa(c.CandidatesScored), strconv.Itoa(c.ShortlistRebuilds),
			strconv.Itoa(c.ShortlistTruncated), strconv.Itoa(c.EngineTicks))
	}
	return t
}

// CSV returns the per-cell results as CSV (deterministic, like JSON).
func (r *Result) CSV() string {
	t := r.CellsTable()
	t.Caption = ""
	return t.CSV()
}

// AggregateTable renders the across-seeds summary, mean±stddev per
// metric plus the (wall-clock) mean round latency.
func (r *Result) AggregateTable() report.Table {
	t := report.Table{
		Caption: fmt.Sprintf("sweep — %d scenarios × %d policies × %d seeds, %d ticks",
			len(r.Scenarios), len(r.Policies), len(r.Seeds), r.Ticks),
		Headers: []string{"scenario", "policy", "avg SLA", "min SLA", "avg W",
			"profit €/h", "migrations", "PMs on", "admit", "t→place", "avail",
			"scored", "ms/round", "fill/score ms"},
	}
	ms := func(s Stat) string { return fmt.Sprintf("%.4f ±%.4f", s.Mean, s.StdDev) }
	for _, a := range r.Aggregates {
		t.AddRow(a.Scenario, a.Policy,
			ms(a.AvgSLA), ms(a.MinSLA),
			fmt.Sprintf("%.1f ±%.1f", a.AvgWatts.Mean, a.AvgWatts.StdDev),
			ms(a.ProfitEURh),
			fmt.Sprintf("%.1f ±%.1f", a.Migrations.Mean, a.Migrations.StdDev),
			fmt.Sprintf("%.2f ±%.2f", a.AvgActivePMs.Mean, a.AvgActivePMs.StdDev),
			fmt.Sprintf("%.2f", a.AdmissionRate.Mean),
			fmt.Sprintf("%.1f", a.MeanPlaceTicks.Mean),
			fmt.Sprintf("%.4f", a.Availability.Mean),
			fmt.Sprintf("%.0f", a.CandScored.Mean),
			fmt.Sprintf("%.2f", a.RoundMS),
			fmt.Sprintf("%.2f/%.2f", a.FillMS, a.ScoreMS))
	}
	return t
}

// Render returns the aggregate table as printable text.
func (r *Result) Render() string {
	t := r.AggregateTable()
	return t.Render()
}

// WriteFiles writes sweep.json and cells.csv under dir (created if
// missing) and returns their paths.
func (r *Result) WriteFiles(dir string) (jsonPath, csvPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	data, err := r.JSON()
	if err != nil {
		return "", "", err
	}
	jsonPath = filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return "", "", err
	}
	csvPath = filepath.Join(dir, "cells.csv")
	if err := os.WriteFile(csvPath, []byte(r.CSV()), 0o644); err != nil {
		return "", "", err
	}
	return jsonPath, csvPath, nil
}
