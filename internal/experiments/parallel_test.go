package experiments

import (
	"testing"

	"repro/internal/predict"
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
	const ticks = 3 * 60 // 18 scheduling rounds

	serial, err := sweep.RunSpec(spec, registered("bf-ml", "serial", nil), bundle, ticks, sweep.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweep.RunSpec(spec, sweep.Policy{
		Name: "parallel", NeedsBundle: true,
		Make: func(sc *scenario.Scenario, b *predict.Bundle) (sched.Scheduler, error) {
			bf := sched.NewBestFit(sweep.CostModel(sc), sched.NewML(b))
			bf.Workers = 3 // explicit, so the parallel path also runs on 1-core hosts
			return bf, nil
		},
	}, bundle, ticks, sweep.RunOpts{})
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
