package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/sweep"
)

// Preset-sweep: sweep.Run over the 18 standard presets x 10 policies on
// one worker. Thousands of tiny fleets make the per-tick and per-cell
// glue (core, lifecycle, faults, admission, obs, series appends,
// scenario.Build) the cost, while the big-fleet round does nothing. Both
// lists are spelled out so that later additions or deletions of presets
// and policies do not change the workload.
//
// A pass runs one sweep.Run per matrix seed, four seeds derived from the
// workload seed, four simulated hours each: a preset's churn and fault
// scripts, and the bundle its ML policies use, come from the matrix seed,
// and one seed alone moves a pass's work by about 10%.
var (
	sweepPresets = []string{
		"churn-diurnal", "churn-poisson", "churn-storm", "delocation",
		"fail-az-outage", "fail-sparse", "flash-crowd", "follow-load",
		"green-solar", "harvest", "hetero-fleet", "hierarchy", "intra-dc",
		"maint-rolling", "multi-dc", "online-shift", "price-spike", "serve-base",
	}
	sweepPolicies = []string{
		"bf", "bf-ob", "bf-ml", "bf-ml-prune", "hier-ob", "hier-ml",
		"firstfit", "worstfit", "roundrobin", "static",
	}
)

const (
	sweepSeeds   = 4
	sweepTicks   = 240
	sweepWorkers = 1
)

func runSweep(r *run) error {
	m := sweep.Matrix{Scenarios: sweepPresets, Policies: sweepPolicies, Ticks: sweepTicks, Workers: sweepWorkers}
	seeds := make([]uint64, sweepSeeds)
	if r.cfg.quick {
		m.Scenarios, m.Policies, m.Ticks = sweepPresets[:3], sweepPolicies[:2], 60
		seeds = seeds[:2]
	}
	for k := range seeds {
		seeds[k] = r.cfg.seed*sweepSeeds + uint64(k)
	}
	if err := r.setup(func() error { return nil }); err != nil {
		return err
	}
	// sweep.Run trains through sweep.TrainedBundle's per-seed cache; fill
	// it outside the timed passes, as the set-ups above measured training.
	for _, seed := range seeds {
		if _, err := sweep.TrainedBundle(seed); err != nil {
			return err
		}
	}
	err := r.passes(func(s *sample, tr *tracer) error {
		root := tr.begin("bench.pass", "bench", 0, strconv.Itoa(len(r.samples)))
		dg := newDigest()
		var ticks, rounds, migrations, cands, trunc, cells int
		var engineMS, roundMS, fillMS, scoreMS, reduceMS, sla, profit float64
		s.startWindow()
		for _, seed := range seeds {
			m.Seeds = []uint64{seed}
			id := tr.begin("sweep.run", "sweep", root, strconv.FormatUint(seed, 10))
			t0 := time.Now()
			res, err := sweep.Run(m)
			d := time.Since(t0)
			tr.end(id)
			r.attempted++
			if err != nil {
				r.failed++
				return err
			}
			s.op(d)
			s.parts = append(s.parts, d.Seconds())
			s.wall += d
			data, err := res.JSON()
			if err != nil {
				return err
			}
			dg.bytes(data)
			for _, c := range res.Cells {
				cells++
				ticks += c.Ticks
				rounds += c.Rounds
				migrations += c.Migrations
				cands += c.CandidatesScored
				trunc += c.ShortlistTruncated
				engineMS += float64(c.EngineTicks) * c.TickMS
				n := float64(c.Rounds)
				roundMS += n * c.RoundMS
				fillMS += n * c.FillMS
				scoreMS += n * c.ScoreMS
				reduceMS += n * c.ReduceMS
				sla += c.AvgSLA
				profit += c.ProfitEURh
			}
		}
		s.stopWindow()
		tr.end(root)
		if cells == 0 || ticks == 0 {
			return fmt.Errorf("sweep produced no cells")
		}
		s.digest = dg.String()
		s.ticks = ticks
		nt, nr, nc := float64(ticks), float64(max(rounds, 1)), float64(cells)
		otherMS := sweepWorkers*ms(s.wall) - engineMS - roundMS
		s.vals["sim.tick_ms"] = engineMS / nt
		s.vals["sim.migrations_per_tick"] = float64(migrations) / nt
		s.vals["sched.round_ms"] = roundMS / nr
		s.vals["sched.fill_ms"] = fillMS / nr
		s.vals["sched.score_ms"] = scoreMS / nr
		s.vals["sched.reduce_ms"] = reduceMS / nr
		s.vals["sched.candidates_per_round"] = float64(cands) / nr
		s.vals["sched.truncated_per_round"] = float64(trunc) / nr
		s.vals["core.glue_ms_per_tick"] = otherMS / nt
		s.vals["sweep.round_ms_total"] = roundMS
		s.vals["sweep.engine_ms_total"] = engineMS
		s.vals["sweep.other_ms_total"] = otherMS
		s.vals["avg_sla"] = sla / nc
		s.vals["profit_eur_h"] = profit / nc
		return nil
	})
	if err != nil {
		return err
	}
	for _, name := range []string{"sweep.round_ms_total", "sweep.engine_ms_total", "sweep.other_ms_total", "avg_sla", "profit_eur_h"} {
		r.detailMedian(name)
	}
	r.checkDigests()
	return nil
}
