package repro

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/sched"
)

// TestScheduleSteadyStateAllocs enforces the allocation contract of the
// scheduling hot path: once warmed, a Best-Fit round through ScheduleInto
// allocates nothing — the only allocation Schedule itself performs is the
// returned placement map.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	bundle, err := experiments.TrainedBundle(benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.NewCostModel(network.PaperTopology(), 1.0/6)
	for _, tc := range []struct {
		name string
		est  sched.Estimator
	}{
		{"observed", sched.NewObserved()},
		{"overbooked", sched.NewOverbooked()},
		{"ml", sched.NewML(bundle)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			problem := syntheticProblem(24, 16)
			bf := sched.NewBestFit(cost, tc.est)
			placement := make(model.Placement, len(problem.VMs))
			// Warm the reusable round, scratch and map storage.
			for i := 0; i < 2; i++ {
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
				t.Fatalf("steady-state ScheduleInto allocates %.1f objects per round, want 0", allocs)
			}
			if len(placement) != len(problem.VMs) {
				t.Fatalf("placement incomplete: %d/%d", len(placement), len(problem.VMs))
			}
		})
	}
}

// TestScheduleChurnAllocs extends the allocation contract to workload
// churn: a Best-Fit whose round storage was grown once keeps allocating
// nothing while the VM set shrinks and grows between rounds (the problem
// sizes a churning manager hands it), as long as no round exceeds the
// high-water mark.
func TestScheduleChurnAllocs(t *testing.T) {
	bundle, err := experiments.TrainedBundle(benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.NewCostModel(network.PaperTopology(), 1.0/6)
	bf := sched.NewBestFit(cost, sched.NewML(bundle))
	big := syntheticProblem(30, 16)
	mid := syntheticProblem(22, 16)
	small := syntheticProblem(9, 16)
	placement := make(model.Placement, len(big.VMs))
	// Warm every size once (the high-water mark is big's).
	for _, p := range []*sched.Problem{big, mid, small, big} {
		clear(placement)
		if err := bf.ScheduleInto(p, placement); err != nil {
			t.Fatal(err)
		}
	}
	sizes := []*sched.Problem{big, small, mid, big, mid, small}
	i := 0
	allocs := testing.AllocsPerRun(6, func() {
		p := sizes[i%len(sizes)]
		i++
		clear(placement)
		if err := bf.ScheduleInto(p, placement); err != nil {
			t.Fatal(err)
		}
		if len(placement) != len(p.VMs) {
			t.Fatalf("placement incomplete: %d/%d", len(placement), len(p.VMs))
		}
	})
	if allocs != 0 {
		t.Fatalf("churning ScheduleInto allocates %.1f objects per round, want 0", allocs)
	}
}
