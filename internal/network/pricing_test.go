package network

import (
	"math"
	"testing"

	"repro/internal/model"
)

func TestEnergyPriceAtDefaultsToStatic(t *testing.T) {
	top := PaperTopology()
	for dc := 0; dc < 4; dc++ {
		if top.EnergyPriceAt(model.DCID(dc), 123) != top.EnergyPrice(model.DCID(dc)) {
			t.Fatalf("unscheduled price differs at DC %d", dc)
		}
	}
}

func TestSolarPricingShape(t *testing.T) {
	base := []float64{0.10, 0.20}
	tz := []float64{0, 12} // DC 1 lives 12 hours ahead
	ps := SolarPricing(base, tz, 0.5)

	noonUTC := 12 * model.TicksPerHour
	midnightUTC := 0
	// DC 0 at its local noon: maximum dip = base * (1-0.5).
	if got := ps(0, noonUTC); math.Abs(got-0.05) > 1e-9 {
		t.Fatalf("noon price = %v, want 0.05", got)
	}
	// DC 0 at local midnight: full price.
	if got := ps(0, midnightUTC); math.Abs(got-0.10) > 1e-9 {
		t.Fatalf("midnight price = %v, want 0.10", got)
	}
	// DC 1 is phase-shifted: its local noon is UTC midnight.
	if got := ps(1, midnightUTC); math.Abs(got-0.10) > 1e-9 {
		t.Fatalf("DC1 at its noon = %v, want 0.10 (dipped from 0.20)", got)
	}
	if got := ps(1, noonUTC); math.Abs(got-0.20) > 1e-9 {
		t.Fatalf("DC1 at its midnight = %v, want full 0.20", got)
	}
	// Out-of-range DC yields zero rather than panicking.
	if ps(9, 0) != 0 {
		t.Fatal("out-of-range DC should price at 0")
	}
}

func TestSolarPricingClampsDip(t *testing.T) {
	ps := SolarPricing([]float64{0.1}, []float64{0}, 5) // dip clamps to 1
	if got := ps(0, 12*model.TicksPerHour); got < 0 {
		t.Fatalf("price went negative: %v", got)
	}
	ps = SolarPricing([]float64{0.1}, []float64{0}, -1) // clamps to 0
	if got := ps(0, 12*model.TicksPerHour); got != 0.1 {
		t.Fatalf("negative dip should be ignored: %v", got)
	}
}

func TestSolarIrradianceEnvelope(t *testing.T) {
	if solarIrradiance(3) != 0 || solarIrradiance(20) != 0 {
		t.Fatal("sun shining at night")
	}
	if math.Abs(solarIrradiance(12)-1) > 1e-9 {
		t.Fatalf("noon irradiance = %v", solarIrradiance(12))
	}
	if solarIrradiance(9) <= 0 || solarIrradiance(9) >= 1 {
		t.Fatalf("morning irradiance out of range: %v", solarIrradiance(9))
	}
}

func TestEnergyPriceAtFollowsSchedule(t *testing.T) {
	top := PaperTopology()
	// Make Barcelona nearly free at tick 100 only.
	top.SetPriceSchedule(func(dc model.DCID, tick int) float64 {
		if dc == 2 && tick == 100 {
			return 0.001
		}
		return top.EnergyPrice(dc)
	})
	if top.EnergyPriceAt(2, 100) != 0.001 {
		t.Fatal("schedule ignored")
	}
	if top.EnergyPriceAt(2, 99) != top.EnergyPrice(2) {
		t.Fatal("schedule leaked to other ticks")
	}
	prices := top.EnergyPricesAt(100, nil)
	if len(prices) != 4 || prices[2] != 0.001 || prices[3] != top.EnergyPrice(3) {
		t.Fatalf("EnergyPricesAt(100) = %v", prices)
	}
}
