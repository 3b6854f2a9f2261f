package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Hyperscale-managed: the hyperscale preset (20000 VMs, 5100 hosts, six
// DCs) under the paper's ML Best-Fit with the exact candidate shortlist
// truncated at PruneK 32, re-planning every 10 ticks, with the engine's
// serial (allocation-free) tick. Each pass builds a
// fresh fleet and times 31 Manager.Step calls: 3 round ticks and 28
// plain ticks. The engine tick and the round do almost all the work.
const (
	hyperscaleSteps  = 31
	hyperscalePruneK = 32
)

// timedScheduler is the manager's scheduler: it forwards each round to
// the Best-Fit and times it from outside.
type timedScheduler struct {
	bf     *sched.BestFit
	tr     *tracer
	parent int
	last   time.Duration
}

func (t *timedScheduler) Name() string { return t.bf.Name() }

func (t *timedScheduler) Schedule(p *sched.Problem) (model.Placement, error) {
	pl := make(model.Placement, len(p.VMs))
	return pl, t.ScheduleInto(p, pl)
}

func (t *timedScheduler) ScheduleInto(p *sched.Problem, pl model.Placement) error {
	id := t.tr.begin("sched.schedule", "sched", t.parent, strconv.Itoa(p.Tick))
	t0 := time.Now()
	err := t.bf.ScheduleInto(p, pl)
	t.last = time.Since(t0)
	t.tr.end(id)
	return err
}

// managedFleet is one freshly built hyperscale fleet and its manager.
type managedFleet struct {
	sc    *scenario.Scenario
	mgr   *core.Manager
	sched *timedScheduler
	eng   *sim.EngineMetrics
}

func (r *run) buildFleet() (*managedFleet, error) {
	preset := scenario.HyperscaleFleet
	if r.cfg.quick {
		preset = scenario.XLargeFleet
	}
	spec, err := scenario.Preset(preset, r.cfg.seed)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		return nil, err
	}
	bf := sched.NewBestFit(sweep.CostModel(sc), sched.NewML(r.bundle))
	bf.Prune, bf.PruneK = true, hyperscalePruneK
	f := &managedFleet{sc: sc, sched: &timedScheduler{bf: bf}, eng: sim.NewEngineMetrics(obs.NewRegistry())}
	sc.World.SetMetrics(f.eng)
	f.mgr, err = core.NewManager(core.ManagerConfig{World: sc.World, Scheduler: f.sched, RoundTicks: sweep.DefaultRoundTicks})
	return f, err
}

func runHyperscale(r *run) error {
	steps := hyperscaleSteps
	if r.cfg.quick {
		steps = 11
	}
	if err := r.setup(func() error { _, err := r.buildFleet(); return err }); err != nil {
		return err
	}
	err := r.passes(func(s *sample, tr *tracer) error {
		f, err := r.buildFleet()
		if err != nil {
			return err
		}
		f.sched.tr = tr
		var simTotal, schedTotal, roundSteps, roundSelf, plainSelf time.Duration
		var rounds, plains int
		var rs sched.RoundStats
		var sla float64
		var migrations int
		root := tr.begin("bench.pass", "bench", 0, strconv.Itoa(len(r.samples)))
		s.startWindow()
		for i := 0; i < steps; i++ {
			id := tr.begin("core.step", "core", root, strconv.Itoa(f.sc.World.Tick()))
			f.sched.parent = id
			simBefore := f.eng.TickSeconds.Sum()
			roundsBefore := f.mgr.Rounds()
			t0 := time.Now()
			st, err := f.mgr.Step()
			d := time.Since(t0)
			tr.end(id)
			r.attempted++
			if err != nil {
				r.failed++
				return fmt.Errorf("step %d: %w", i, err)
			}
			simD := time.Duration((f.eng.TickSeconds.Sum() - simBefore) * 1e9)
			tr.synth("sim.tick", "sim", id, simD)
			s.op(d)
			s.parts = append(s.parts, d.Seconds())
			s.wall += d
			simTotal += simD
			sla += st.AvgSLA
			migrations += st.Migrations
			if f.mgr.Rounds() > roundsBefore {
				rounds++
				roundSteps += d
				schedTotal += f.sched.last
				roundSelf += d - f.sched.last - simD
				last := f.sched.bf.LastRoundStats()
				rs.FillNS += last.FillNS
				rs.ScoreNS += last.ScoreNS
				rs.ReduceNS += last.ReduceNS
				rs.CandidatesScored += last.CandidatesScored
				rs.ShortlistTruncated += last.ShortlistTruncated
			} else {
				plains++
				plainSelf += d - simD
				s.lat["plain_tick"] = append(s.lat["plain_tick"], ms(d))
			}
		}
		s.stopWindow()
		tr.end(root)
		s.ticks = steps

		n := float64(steps)
		perRound := func(v float64) float64 { return v / float64(max(rounds, 1)) }
		s.vals["sim.tick_ms"] = ms(simTotal) / n
		s.vals["sim.migrations_per_tick"] = float64(migrations) / n
		s.vals["sched.round_ms"] = perRound(ms(schedTotal))
		s.vals["sched.fill_ms"] = perRound(float64(rs.FillNS) / 1e6)
		s.vals["sched.score_ms"] = perRound(float64(rs.ScoreNS) / 1e6)
		s.vals["sched.reduce_ms"] = perRound(float64(rs.ReduceNS) / 1e6)
		s.vals["sched.candidates_per_round"] = perRound(float64(rs.CandidatesScored))
		s.vals["sched.truncated_per_round"] = perRound(float64(rs.ShortlistTruncated))
		s.vals["core.glue_ms_per_tick"] = ms(s.wall-schedTotal-simTotal) / n
		s.vals["round_tick_ms"] = perRound(ms(roundSteps))
		s.vals["core.round_self_ms"] = perRound(ms(roundSelf))
		s.vals["core.plain_self_ms"] = ms(plainSelf) / float64(max(plains, 1))
		s.vals["avg_sla"] = sla / n
		ledger := f.sc.World.Ledger()
		s.vals["profit_eur_h"] = ledger.AvgProfitPerHour(sim.TickHours)
		s.digest = fleetDigest(f.sc.World, ledger.Revenue(), ledger.EnergyCost(), ledger.Penalties())
		return nil
	})
	if err != nil {
		return err
	}
	for _, name := range []string{"round_tick_ms", "core.round_self_ms", "core.plain_self_ms", "avg_sla", "profit_eur_h"} {
		r.detailMedian(name)
	}
	r.latency("plain_tick_ms", r.pooled("plain_tick"), 90)
	r.checkDigests()
	return nil
}

// fleetDigest hashes the final placement (every VM slot's host) and the
// ledger totals.
func fleetDigest(w *sim.World, ledger ...float64) string {
	d := newDigest()
	for i := 0; i < w.NumVMs(); i++ {
		d.int(int(w.VMSpecAt(i).ID))
		host := -1
		if j := w.HostIndexOf(i); j >= 0 {
			host = int(w.PMSpecAt(j).ID)
		}
		d.int(host)
	}
	for _, v := range ledger {
		d.float(v)
	}
	return d.String()
}
