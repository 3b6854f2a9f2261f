package experiments

import (
	"testing"

	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sweep"
)

// TestParallelMatchesSerialHeteroFleet runs the same managed hetero-fleet
// scenario under the serial and the parallel Best-Fit and demands the runs
// be indistinguishable to the last bit: parallel candidate evaluation is a
// throughput knob, never a decision change — even with asymmetric bins
// where scoring ties are most likely.
func TestParallelMatchesSerialHeteroFleet(t *testing.T) {
	bundle, err := TrainedBundle(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.MustPreset(scenario.HeteroFleet, testSeed)
	initial := func(sc *scenario.Scenario) model.Placement { return sc.HomePlacement() }
	const ticks = 3 * 60 // 18 scheduling rounds

	serial, err := RunPolicy(spec, func(sc *scenario.Scenario) (sched.Scheduler, error) {
		return sched.NewBestFit(sweep.CostModel(sc), sched.NewML(bundle)), nil
	}, initial, ticks)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunPolicy(spec, func(sc *scenario.Scenario) (sched.Scheduler, error) {
		return sweep.ParallelBestFit(sweep.CostModel(sc), sched.NewML(bundle)), nil
	}, initial, ticks)
	if err != nil {
		t.Fatal(err)
	}

	if serial.AvgSLA != parallel.AvgSLA ||
		serial.AvgWatts != parallel.AvgWatts ||
		serial.ProfitEURh != parallel.ProfitEURh ||
		serial.Migrations != parallel.Migrations {
		t.Fatalf("parallel run diverged from serial:\nserial   sla=%v watts=%v eur=%v mig=%d\nparallel sla=%v watts=%v eur=%v mig=%d",
			serial.AvgSLA, serial.AvgWatts, serial.ProfitEURh, serial.Migrations,
			parallel.AvgSLA, parallel.AvgWatts, parallel.ProfitEURh, parallel.Migrations)
	}
	for i := range serial.SLASeries {
		if serial.SLASeries[i] != parallel.SLASeries[i] {
			t.Fatalf("tick %d: SLA %v != %v", i, serial.SLASeries[i], parallel.SLASeries[i])
		}
	}
}
