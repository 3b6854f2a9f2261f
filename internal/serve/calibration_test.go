package serve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/predict"
)

// echoGrant is a stand-in SLA and RT model that predicts its granted-CPU
// feature, so window tests choose each pair's prediction; calls counts
// its predictions.
type echoGrant struct{ calls *int }

func (r echoGrant) Predict(x []float64) float64 {
	if r.calls != nil {
		*r.calls++
	}
	return x[2]
}

// record adds one pair whose prediction will be pred (in [0, 1]).
func record(c *Calibration, b *predict.Bundle, pred, obs float64) {
	c.Record(b, model.Load{}, pred, 0, 0, obs)
}

var echoBundle = &predict.Bundle{VMSLA: echoGrant{}, VMRT: echoGrant{}}

// TestCalibrationWindow pins the sliding-window mechanics: pairs
// accumulate to the window size, then evict oldest-first while the
// lifetime total keeps counting.
func TestCalibrationWindow(t *testing.T) {
	c := NewCalibration(3)
	if r := c.Report(); r.Pairs != 0 || r.MAPE != 0 || r.PearsonR != 0 {
		t.Fatalf("empty report %+v", r)
	}
	for i := 0; i < 5; i++ {
		record(c, echoBundle, float64(i)/4, float64(i)/4)
	}
	r := c.Report()
	if r.Pairs != 3 || r.Total != 5 {
		t.Fatalf("pairs=%d total=%d, want 3/5", r.Pairs, r.Total)
	}
	// Perfect predictions: zero error, perfect correlation.
	if r.MAPE != 0 {
		t.Fatalf("MAPE %v for perfect predictions", r.MAPE)
	}
	if math.Abs(r.PearsonR-1) > 1e-12 {
		t.Fatalf("PearsonR %v for perfect predictions", r.PearsonR)
	}
}

// TestCalibrationPredictsOnRead pins the lazy evaluation: Report
// predicts only the pairs recorded since the previous Report, at most
// one window's worth however many were recorded, each with the model
// set it was recorded under.
func TestCalibrationPredictsOnRead(t *testing.T) {
	var calls int
	counting := &predict.Bundle{VMSLA: echoGrant{calls: &calls}, VMRT: echoGrant{}}
	c := NewCalibration(4)
	for i := 0; i < 10; i++ {
		record(c, counting, 0.5, 0.5)
	}
	if calls != 0 {
		t.Fatalf("Record predicted %d times, want 0", calls)
	}
	if r := c.Report(); r.Pairs != 4 || r.Total != 10 || r.MAPE != 0 {
		t.Fatalf("report %+v, want 4 exact pairs of 10", r)
	}
	if calls != 4 {
		t.Fatalf("Report predicted %d pairs, want the window's 4", calls)
	}
	c.Report()
	if calls != 4 {
		t.Fatalf("a second Report predicted %d more pairs, want 0", calls-4)
	}
	// One new pair under another model set: only it is predicted, and
	// the three older pairs keep their predictions.
	half := &predict.Bundle{VMSLA: echoGrant{}, VMRT: echoGrant{}}
	record(c, half, 0.25, 0.5)
	r := c.Report()
	if calls != 4 {
		t.Fatalf("the old model set predicted again (%d calls)", calls)
	}
	if want := 0.5 / 4; math.Abs(r.MAPE-want) > 1e-12 {
		t.Fatalf("MAPE %v, want %v", r.MAPE, want)
	}
}

// TestCalibrationMAPEFloor pins the near-zero-denominator guard: an
// observed SLA of 0 is measured against the 0.05 floor instead of
// dividing by zero.
func TestCalibrationMAPEFloor(t *testing.T) {
	c := NewCalibration(4)
	record(c, echoBundle, 0.5, 0)
	r := c.Report()
	want := 0.5 / minMAPEDenom
	if math.Abs(r.MAPE-want) > 1e-12 {
		t.Fatalf("MAPE %v, want %v (floored denominator)", r.MAPE, want)
	}
	if math.IsInf(r.MAPE, 0) || math.IsNaN(r.MAPE) {
		t.Fatalf("MAPE diverged: %v", r.MAPE)
	}
}

// TestCalibrationAnticorrelated sanity-checks the correlation sign: a
// predictor that moves against reality reports negative r.
func TestCalibrationAnticorrelated(t *testing.T) {
	c := NewCalibration(8)
	for i := 0; i < 8; i++ {
		record(c, echoBundle, float64(i)/8, 1-float64(i)/8)
	}
	if r := c.Report(); r.PearsonR >= 0 {
		t.Fatalf("PearsonR %v for anticorrelated pairs, want < 0", r.PearsonR)
	}
}

// stormScript offers four VMs every fourth tick and drives each with
// telemetry from 20 to 140 rps: enough load that the gateway measures
// SLA shortfalls, so calibration pairs carry real variance, and enough
// VMs that the default window wraps.
func stormScript() *ReplayScript {
	rs := &ReplayScript{Ticks: 45}
	var seq int64
	for tick := 0; tick < 40; tick += 4 {
		var evs []Event
		for k := 0; k < 4; k++ {
			seq++
			evs = append(evs, offerEv(seq, fmt.Sprintf("vm-%d-%d", tick, k), k))
		}
		for k := 0; k < 4; k++ {
			seq++
			evs = append(evs, telemEv(seq, fmt.Sprintf("vm-%d-%d", tick, k), float64(20+40*k)))
		}
		rs.Steps = append(rs.Steps, ReplayStep{Tick: tick, Events: evs})
	}
	return rs
}

// TestCalibrationReportGolden pins the exact float64 bits of the
// calibration report after online-learning replays (SLA gate on, a
// synchronous refit every 15 ticks): the smoke script, and the storm
// script under the default window (which wraps) and a 64-pair window.
// Any change to when or how calibration predictions are computed must
// leave every bit in place.
func TestCalibrationReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cases := []struct {
		name        string
		script      *ReplayScript
		window      int
		pairs       int
		total       int
		mape, corrR uint64
	}{
		{"smoke", smokeScript(), 0, 214, 214, 0x3fbf821bae35d286, 0},
		{"storm", stormScript(), 0, 512, 576, 0x4002645ab5118f88, 0x3fe381a4771b1c7d},
		{"storm-window-64", stormScript(), 64, 64, 576, 0x3fa59db466c5e081, 0x3fdb1c20e0bf1135},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Seed:               9,
				Bundle:             testBundle(t),
				MinPredictedSLA:    0.2,
				OnlineRetrainEvery: 15,
				CalibWindow:        tc.window,
			}
			s, c := newTestServer(t, cfg)
			if _, err := c.Replay(tc.script, 2); err != nil {
				t.Fatal(err)
			}
			r := s.Snapshot().Calibration
			if r == nil {
				t.Fatal("no calibration report")
			}
			if r.Pairs != tc.pairs || r.Total != tc.total ||
				math.Float64bits(r.MAPE) != tc.mape || math.Float64bits(r.PearsonR) != tc.corrR {
				t.Fatalf("report pairs=%d total=%d mape=%#016x r=%#016x, want %d/%d/%#016x/%#016x",
					r.Pairs, r.Total, math.Float64bits(r.MAPE), math.Float64bits(r.PearsonR),
					tc.pairs, tc.total, tc.mape, tc.corrR)
			}
		})
	}
}
