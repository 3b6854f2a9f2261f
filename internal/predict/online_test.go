package predict

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/scenario"
)

func TestTailTruncation(t *testing.T) {
	d := ml.NewDataset([]string{"x"})
	for i := 0; i < 10; i++ {
		d.Add([]float64{float64(i)}, float64(i))
	}
	tail(d, 4)
	if d.Len() != 4 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Y[0] != 6 || d.Y[3] != 9 {
		t.Fatalf("tail kept wrong rows: %v", d.Y)
	}
	tail(d, 10) // no-op when already short
	if d.Len() != 4 {
		t.Fatal("no-op tail changed dataset")
	}

	// A full window slides without copying its spine every tick: a view
	// taken before a cut keeps its rows, and the backing array stays
	// within a constant factor of the window.
	const n = 1000
	d = ml.NewDataset([]string{"x"})
	for i := 0; i < 20*n; i++ {
		if i == 5*n {
			view := d.Y
			defer func() {
				if view[0] != float64(4*n) || view[n-1] != float64(5*n-1) {
					t.Errorf("an earlier view changed: %v .. %v", view[0], view[n-1])
				}
			}()
		}
		d.Add([]float64{float64(i)}, float64(i))
		tail(d, n)
		if d.Len() != min(i+1, n) || d.Y[d.Len()-1] != float64(i) || cap(d.X) > 2*n {
			t.Fatalf("row %d: len %d, last %v, cap %d", i, d.Len(), d.Y[d.Len()-1], cap(d.X))
		}
	}
	row := []float64{1}
	allocs := testing.AllocsPerRun(10*n, func() {
		d.Add(row, 1) // one allocation: Add copies the row
		tail(d, n)
	})
	if allocs > 1 {
		t.Fatalf("Add + tail allocate %v times per row, want the row alone", allocs)
	}
}

func TestCloneBundleIsIndependent(t *testing.T) {
	b := trainedBundle(t)
	clone, err := CloneBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	l := model.Load{RPS: 30, BytesInReq: 500, BytesOutRq: 20000, CPUTimeReq: 0.01}
	if b.PredictVMResources(l, 0) != clone.PredictVMResources(l, 0) {
		t.Fatal("clone predicts differently")
	}
	// Mutating the clone must not touch the original.
	clone.VMCPU = nil
	if b.VMCPU == nil {
		t.Fatal("clone shares state with original")
	}
}

func TestOnlineObserveAndRetrain(t *testing.T) {
	base := trainedBundle(t)
	o, err := NewOnline(base, DefaultTrainConfig(5), 500, 50)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Build(scenario.Spec{
		Name: "online-test", Seed: 5,
		DCs: 2, PMsPerDC: 2, VMs: 4, LoadScale: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := model.Placement{}
	for _, vm := range sc.VMs {
		p[vm.ID] = 0
	}
	if err := sc.World.PlaceInitial(p); err != nil {
		t.Fatal(err)
	}
	retrained := false
	for tick := 0; tick < 160; tick++ {
		sc.World.Step()
		o.Observe(sc.World)
		did, err := o.MaybeRetrain(sc.World.Tick())
		if err != nil {
			t.Fatal(err)
		}
		if did {
			retrained = true
		}
	}
	if !retrained {
		t.Fatal("never retrained in 160 ticks with period 50")
	}
	if o.Retrains() < 1 {
		t.Fatal("retrain counter not incremented")
	}
	// Window stays bounded.
	for _, d := range o.Window.datasets() {
		if d.Len() > 500 {
			t.Fatalf("window overflow: %d rows", d.Len())
		}
	}
	// The live bundle must still predict sensibly after the swap.
	l := model.Load{RPS: 30, BytesInReq: 500, BytesOutRq: 20000, CPUTimeReq: 0.01}
	r := o.Bundle.PredictVMResources(l, 0)
	if !r.NonNegative() || r.CPUPct == 0 {
		t.Fatalf("retrained bundle broken: %v", r)
	}
}

func TestOnlineSkipsWhenDataThin(t *testing.T) {
	base := trainedBundle(t)
	o, err := NewOnline(base, DefaultTrainConfig(5), 500, 10)
	if err != nil {
		t.Fatal(err)
	}
	// No observations at all: a period boundary must not retrain.
	did, err := o.MaybeRetrain(10)
	if err != nil {
		t.Fatal(err)
	}
	if did {
		t.Fatal("retrained with empty window")
	}
	// Non-boundary ticks never retrain.
	if did, _ := o.MaybeRetrain(11); did {
		t.Fatal("retrained off-period")
	}
}

// TestOnlineStats pins the freshness snapshot: before any refit it
// reports zero retrains (tick -1), after a refit the tick, a non-zero
// wall time and every dataset's window occupancy.
func TestOnlineStats(t *testing.T) {
	base := trainedBundle(t)
	o, err := NewOnline(base, DefaultTrainConfig(5), 500, 50)
	if err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Retrains != 0 || st.LastRetrainTick != -1 || st.LastRetrainWall != 0 {
		t.Fatalf("fresh learner reports stale stats: %+v", st)
	}
	if len(st.WindowRows) != 7 {
		t.Fatalf("want 7 datasets, got %d", len(st.WindowRows))
	}
	sc, err := scenario.Build(scenario.Spec{
		Name: "online-stats", Seed: 5,
		DCs: 2, PMsPerDC: 2, VMs: 4, LoadScale: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := model.Placement{}
	for _, vm := range sc.VMs {
		p[vm.ID] = 0
	}
	if err := sc.World.PlaceInitial(p); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 110; tick++ {
		sc.World.Step()
		o.Observe(sc.World)
		if _, err := o.MaybeRetrain(sc.World.Tick()); err != nil {
			t.Fatal(err)
		}
	}
	st = o.Stats()
	if st.Retrains != o.Retrains() || st.Retrains < 1 {
		t.Fatalf("retrain count mismatch: %+v vs %d", st, o.Retrains())
	}
	if st.LastRetrainTick != 100 {
		t.Fatalf("last retrain tick %d, want 100", st.LastRetrainTick)
	}
	if st.LastRetrainWall <= 0 {
		t.Fatal("retrain wall time not recorded")
	}
	names := map[string]bool{}
	for _, d := range st.WindowRows {
		names[d.Name] = true
		if d.Rows == 0 {
			t.Fatalf("dataset %s reports an empty window after 110 observed ticks", d.Name)
		}
	}
	for _, want := range []string{"VM CPU", "VM MEM", "VM IN", "VM OUT", "PM CPU", "VM RT", "VM SLA"} {
		if !names[want] {
			t.Fatalf("dataset %q missing from stats: %+v", want, st.WindowRows)
		}
	}
}
