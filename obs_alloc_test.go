package repro

import (
	"testing"

	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sched"
)

// TestScheduleSteadyStateAllocsWithMetrics is the scheduling-round
// counterpart of the engine's instrumented alloc gate: a Best-Fit round
// with metric sinks attached must stay allocation-free once warmed,
// exactly like the uninstrumented contract in TestScheduleSteadyStateAllocs.
func TestScheduleSteadyStateAllocsWithMetrics(t *testing.T) {
	cost := sched.NewCostModel(network.PaperTopology(), 1.0/6)
	problem := syntheticProblem(24, 16)
	bf := sched.NewBestFit(cost, sched.NewOverbooked())
	reg := obs.NewRegistry()
	met := sched.NewSchedMetrics(reg)
	bf.SetMetrics(met)
	placement := make(model.Placement, len(problem.VMs))
	for i := 0; i < 2; i++ { // warm the reusable round, scratch and map storage
		clear(placement)
		if err := bf.ScheduleInto(problem, placement); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		clear(placement)
		if err := bf.ScheduleInto(problem, placement); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented ScheduleInto allocates %.1f objects per round, want 0", allocs)
	}
	// 2 warmup rounds + the 6 AllocsPerRun runs (n+1).
	if got := met.Rounds.Value(); got != 8 {
		t.Fatalf("rounds counter = %d, want 8", got)
	}
	if met.CandidatesScored.Value() == 0 || met.RoundSeconds.Count() != 8 {
		t.Fatal("round metrics were not recorded")
	}
}

// BenchmarkMetricsRecord is the benchgated record path: one counter add,
// one gauge store and one histogram observe per iteration, pinned at
// 0 allocs/op in BENCH_sched.json.
func BenchmarkMetricsRecord(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_events_total", "bench counter")
	g := reg.Gauge("bench_level", "bench gauge")
	h := reg.Histogram("bench_lat_seconds", "bench histogram", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i%17) * 1e-4)
	}
}
