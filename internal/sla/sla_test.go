package sla

import (
	"math"
	"testing"

	"repro/internal/model"
)

func TestWeightedFulfilment(t *testing.T) {
	terms := model.SLATerms{RT0: 0.1, Alpha: 10}
	loads := model.LoadVector{{RPS: 10}, {RPS: 30}}
	// Source 0 at full SLA, source 1 at zero.
	got := WeightedFulfilment(terms, []float64{0.05, 5.0}, loads)
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("WeightedFulfilment = %v, want 0.25", got)
	}
}

func TestWeightedFulfilmentNoLoad(t *testing.T) {
	terms := model.DefaultSLATerms
	if got := WeightedFulfilment(terms, nil, model.LoadVector{{}, {}}); got != 1 {
		t.Fatalf("idle VM fulfilment = %v, want 1", got)
	}
}

func TestWeightedFulfilmentShortRTSlice(t *testing.T) {
	terms := model.DefaultSLATerms
	loads := model.LoadVector{{RPS: 10}, {RPS: 30}}
	// Only one RT supplied: the second source is ignored, weight falls on
	// the first.
	got := WeightedFulfilment(terms, []float64{0.05}, loads)
	if got != 1 {
		t.Fatalf("fulfilment = %v", got)
	}
}

func TestRevenueClamping(t *testing.T) {
	if got := Revenue(0.17, 1.5, 1); math.Abs(got-0.17) > 1e-12 {
		t.Fatalf("Revenue over-fulfilment = %v", got)
	}
	if got := Revenue(0.17, -0.5, 1); got != 0 {
		t.Fatalf("Revenue negative fulfilment = %v", got)
	}
	if got := Revenue(0.17, 0.5, 2); math.Abs(got-0.17) > 1e-12 {
		t.Fatalf("Revenue = %v", got)
	}
}

func TestMigrationPenalty(t *testing.T) {
	if got := MigrationPenalty(0.17, 0.5); math.Abs(got-0.085) > 1e-12 {
		t.Fatalf("MigrationPenalty = %v", got)
	}
	if got := MigrationPenalty(0.17, -1); got != 0 {
		t.Fatalf("negative downtime penalty = %v", got)
	}
}

func TestLedger(t *testing.T) {
	var l Ledger
	l.AddRevenue(1.0)
	l.AddPenalty(0.2)
	l.AddEnergy(0.3)
	l.Tick()
	l.AddRevenue(0.5)
	l.Tick()
	if p := l.Profit(); math.Abs(p-1.0) > 1e-12 {
		t.Fatalf("Profit = %v", p)
	}
	if l.Ticks() != 2 {
		t.Fatalf("Ticks = %d", l.Ticks())
	}
	// 2 ticks at 1/60h each; profit 1.0 over 1/30 h = 30/h.
	if got := l.AvgProfitPerHour(1.0 / 60); math.Abs(got-30) > 1e-9 {
		t.Fatalf("AvgProfitPerHour = %v", got)
	}
}

func TestLedgerZeroTicks(t *testing.T) {
	var l Ledger
	if l.AvgProfitPerHour(1.0/60) != 0 {
		t.Fatal("empty ledger avg should be 0")
	}
}
