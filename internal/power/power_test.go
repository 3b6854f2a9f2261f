package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAtomMeasuredPoints(t *testing.T) {
	tests := []struct {
		cpu, want float64
	}{
		{0, 28.2},
		{100, 29.1},
		{200, 30.4},
		{300, 31.3},
		{400, 31.8},
		{500, 31.8}, // beyond capacity clamps
		{-10, 28.2}, // negative clamps to idle
	}
	for _, tc := range tests {
		if got := Watts(tc.cpu); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Watts(%v) = %v, want %v", tc.cpu, got, tc.want)
		}
	}
}

func TestAtomInterpolationMidpoints(t *testing.T) {
	if got := Watts(150); math.Abs(got-(29.1+30.4)/2) > 1e-9 {
		t.Fatalf("Watts(150) = %v", got)
	}
	if got := Watts(50); math.Abs(got-(28.2+29.1)/2) > 1e-9 {
		t.Fatalf("Watts(50) = %v", got)
	}
}

func TestAtomMonotoneProperty(t *testing.T) {
	f := func(x, y float64) bool {
		cx := math.Mod(math.Abs(x), 450)
		cy := math.Mod(math.Abs(y), 450)
		if cx > cy {
			cx, cy = cy, cx
		}
		return Watts(cx) <= Watts(cy)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConsolidationIsCheaper(t *testing.T) {
	// The core economic fact: two machines at one core each burn much more
	// than one machine at two cores.
	two := 2 * Watts(100)
	one := Watts(200)
	if one >= two {
		t.Fatalf("consolidation not cheaper: 1x200%%=%vW vs 2x100%%=%vW", one, two)
	}
	if two-one < 25 {
		t.Fatalf("saving too small to drive consolidation: %vW", two-one)
	}
}

func TestFacilityWatts(t *testing.T) {
	got := FacilityWatts(400)
	if math.Abs(got-31.8*1.5) > 1e-9 {
		t.Fatalf("FacilityWatts = %v", got)
	}
}

func TestEnergyEUR(t *testing.T) {
	// 1000 facility watts for 2 hours at 0.15 EUR/kWh = 0.3 EUR.
	if got := EnergyEUR(1000, 2, 0.15); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("EnergyEUR = %v", got)
	}
}

func TestTableIIIStaticPowerBallpark(t *testing.T) {
	// Four nearly idle machines with cooling should land near the paper's
	// 175.9 W static figure.
	watts := 4 * FacilityWatts(30) // ~30% of one core each
	if watts < 165 || watts < 0 || watts > 185 {
		t.Fatalf("static fleet facility watts = %v, want ~175", watts)
	}
}
