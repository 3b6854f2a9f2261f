package sched_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// TestRoundStatsInferenceWork pins the round's inference-work counters:
// a serial round reports the same k-NN and marginal-watts memo counts
// every time it runs on the same problem (fresh or reused scheduler), the
// table fill asks the SLA k-NN at least once per VM, every query scans at
// least one leaf, and the metric sinks receive exactly the RoundStats
// figures without any of them reaching the deterministic snapshot.
func TestRoundStatsInferenceWork(t *testing.T) {
	bundle, err := experiments.TrainedBundle(paritySeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{scenario.MultiDC, scenario.ChurnStorm} {
		p := presetProblem(t, name, paritySeed)
		cost := parityCost(t, name, paritySeed)
		run := func(bf *sched.BestFit) sched.RoundStats {
			t.Helper()
			if _, err := bf.Schedule(p); err != nil {
				t.Fatal(err)
			}
			return bf.LastRoundStats()
		}
		mk := func() *sched.BestFit {
			bf := sched.NewBestFit(cost, sched.NewML(bundle))
			bf.Prune = true
			return bf
		}
		reg := obs.NewRegistry()
		met := sched.NewSchedMetrics(reg)
		bf := mk()
		bf.SetMetrics(met)
		first, again := run(bf), run(bf)
		fresh := run(mk())
		work := func(st sched.RoundStats) [5]int {
			return [5]int{st.KNNQueries, st.KNNLeaves, st.KNNPoints, st.EnergyMemoHits, st.EnergyMemoMisses}
		}
		if work(first) != work(again) || work(first) != work(fresh) {
			t.Fatalf("%s: inference work differs between runs: %v, reused %v, fresh %v",
				name, work(first), work(again), work(fresh))
		}
		if first.KNNQueries < len(p.VMs) || first.KNNLeaves < first.KNNQueries ||
			first.KNNPoints < first.KNNLeaves || first.EnergyMemoMisses == 0 {
			t.Fatalf("%s: implausible inference work %v for %d VMs", name, work(first), len(p.VMs))
		}
		snap := reg.DeterministicSnapshot()
		for _, c := range []struct {
			series string
			got    *obs.Counter
			want   int
		}{
			{"mdcsim_sched_knn_queries_total", met.KNNQueries, first.KNNQueries},
			{"mdcsim_sched_knn_leaves_scanned_total", met.KNNLeaves, first.KNNLeaves},
			{"mdcsim_sched_knn_points_scanned_total", met.KNNPoints, first.KNNPoints},
			{"mdcsim_sched_energy_memo_hits_total", met.EnergyMemoHits, first.EnergyMemoHits},
			{"mdcsim_sched_energy_memo_misses_total", met.EnergyMemoMisses, first.EnergyMemoMisses},
		} {
			if got := c.got.Value(); got != uint64(2*c.want) {
				t.Fatalf("%s: %s = %d, want %d over two rounds", name, c.series, got, 2*c.want)
			}
			if _, leaked := snap[c.series]; leaked {
				t.Fatalf("%s: %s reached the deterministic snapshot", name, c.series)
			}
		}
	}
}
