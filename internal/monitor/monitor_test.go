package monitor

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
)

func newObs(noise NoiseConfig) *Observer {
	return NewObserver(noise, 10, 1, 1, rng.New(1, 2))
}

func TestObserveVMNoiseless(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 10, 1, 1, nil)
	u := model.Resources{CPUPct: 123, MemMB: 456, BWMbps: 7}
	s := o.ObserveVM(0, 0, u, model.Load{RPS: 10}, 0.2, 0.9, 3)
	if s.Usage != u {
		t.Fatalf("noiseless observation distorted: %v", s.Usage)
	}
	if s.RT != 0.2 || s.SLA != 0.9 || s.QueueLen != 3 {
		t.Fatalf("sample fields wrong: %+v", s)
	}
}

func TestObserveVMNoiseBounded(t *testing.T) {
	o := newObs(NoiseConfig{RelSD: 0.05})
	u := model.Resources{CPUPct: 100, MemMB: 512, BWMbps: 10}
	var sum float64
	n := 2000
	for i := 0; i < n; i++ {
		s := o.ObserveVM(i, 0, u, model.Load{}, 0, 1, 0)
		sum += s.Usage.CPUPct
		if s.Usage.CPUPct < 50 || s.Usage.CPUPct > 200 {
			t.Fatalf("implausible noise: %v", s.Usage.CPUPct)
		}
	}
	mean := sum / float64(n)
	if math.Abs(mean-100) > 2 {
		t.Fatalf("noise biased: mean = %v", mean)
	}
}

func TestSLAClamped(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 10, 1, 1, nil)
	if s := o.ObserveVM(0, 0, model.Resources{}, model.Load{}, 0, 1.7, 0); s.SLA != 1 {
		t.Fatalf("SLA not clamped high: %v", s.SLA)
	}
	if s := o.ObserveVM(1, 0, model.Resources{}, model.Load{}, 0, -0.5, 0); s.SLA != 0 {
		t.Fatalf("SLA not clamped low: %v", s.SLA)
	}
}

func TestWindowAverageAndMax(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 3, 10, 1, nil)
	if _, ok := o.WindowAvgVM(0); ok {
		t.Fatal("empty window reported ok")
	}
	for i, cpu := range []float64{100, 200, 300, 400} {
		o.ObserveVM(i, 0, model.Resources{CPUPct: cpu}, model.Load{}, 0, 1, 0)
	}
	// Window of 3 keeps 200, 300, 400.
	avg, ok := o.WindowAvgVM(0)
	if !ok || math.Abs(avg.CPUPct-300) > 1e-9 {
		t.Fatalf("WindowAvgVM = %v, %v", avg, ok)
	}
	last, ok := o.LastVM(0)
	if !ok || last.Usage.CPUPct != 400 || last.Tick != 3 {
		t.Fatalf("LastVM = %+v", last)
	}
}

func TestWindowEmpty(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 3, 10, 1, nil)
	if _, ok := o.WindowAvgLoad(9); ok {
		t.Fatal("empty load window reported ok")
	}
	if _, ok := o.LastVM(9); ok {
		t.Fatal("empty last reported ok")
	}
}

func TestObservePMSpikes(t *testing.T) {
	o := newObs(NoiseConfig{RelSD: 0, SpikeProb: 1, SpikeCPUPct: 50})
	u := model.Resources{CPUPct: 100}
	obs := o.ObservePM(0, 0, u)
	if obs.CPUPct <= 100 {
		t.Fatalf("guaranteed spike did not fire: %v", obs.CPUPct)
	}
	if obs.CPUPct > 150 {
		t.Fatalf("spike exceeds configured magnitude: %v", obs.CPUPct)
	}
	last, ok := o.LastPM(0)
	if !ok || last != obs {
		t.Fatalf("PM window last = %v, want the spiked %v", last, obs)
	}
}

func TestObservePMNoSpike(t *testing.T) {
	o := newObs(NoiseConfig{RelSD: 0, SpikeProb: 0})
	obs := o.ObservePM(0, 0, model.Resources{CPUPct: 100})
	if obs.CPUPct != 100 {
		t.Fatalf("spike fired at probability 0: %v", obs.CPUPct)
	}
	if _, ok := o.LastPM(42); ok {
		t.Fatal("ghost PM window reported ok")
	}
}

func TestWindowDefaulting(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 0, 1, 1, nil)
	if o.Window() != 10 {
		t.Fatalf("default window = %d, want 10", o.Window())
	}
}

func TestObserverDeterministicWithSameSeed(t *testing.T) {
	a := NewObserver(DefaultNoise, 10, 1, 1, rng.New(5, 5))
	b := NewObserver(DefaultNoise, 10, 1, 1, rng.New(5, 5))
	u := model.Resources{CPUPct: 100, MemMB: 512, BWMbps: 10}
	for i := 0; i < 50; i++ {
		sa := a.ObserveVM(i, 0, u, model.Load{}, 0.1, 1, 0)
		sb := b.ObserveVM(i, 0, u, model.Load{}, 0.1, 1, 0)
		if sa.Usage != sb.Usage {
			t.Fatal("observers with same seed diverged")
		}
	}
}

// TestResetVMStartsEmpty pins the slot-reuse contract: a slot handed to a
// new VM reports no samples of its previous tenant, its window refills
// from scratch, and no other slot is touched. Observing allocates nothing.
func TestResetVMStartsEmpty(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 3, 2, 1, nil)
	for i, cpu := range []float64{100, 200, 300, 400} {
		o.ObserveVM(i, 0, model.Resources{CPUPct: cpu}, model.Load{RPS: cpu}, 0, 1, 0)
		o.ObserveVM(i, 1, model.Resources{CPUPct: 7}, model.Load{}, 0, 1, 0)
	}
	o.ResetVM(0)
	if _, ok := o.LastVM(0); ok {
		t.Fatal("reset slot still reports its previous tenant's last sample")
	}
	if _, ok := o.WindowAvgVM(0); ok {
		t.Fatal("reset slot still reports a usage window")
	}
	if _, ok := o.WindowAvgLoad(0); ok {
		t.Fatal("reset slot still reports a load window")
	}
	if avg, ok := o.WindowAvgVM(1); !ok || avg.CPUPct != 7 {
		t.Fatalf("neighbouring slot disturbed: %v, %v", avg, ok)
	}
	o.ObserveVM(4, 0, model.Resources{CPUPct: 10}, model.Load{}, 0, 1, 0)
	if avg, ok := o.WindowAvgVM(0); !ok || avg.CPUPct != 10 {
		t.Fatalf("new tenant's window = %v, %v, want its own sample only", avg, ok)
	}
	allocs := testing.AllocsPerRun(20, func() {
		o.ResetVM(0)
		for i := 0; i < 5; i++ {
			o.ObserveVM(i, 0, model.Resources{CPUPct: 10}, model.Load{}, 0, 1, 0)
			o.ObservePM(i, 0, model.Resources{CPUPct: 10})
		}
	})
	if allocs != 0 {
		t.Fatalf("reset and observe: %v allocs, want 0", allocs)
	}
}
