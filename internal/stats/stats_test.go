package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("Variance = %v", v)
	}
	if sd := StdDev(xs); sd != 2 {
		t.Fatalf("StdDev = %v", sd)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty-input statistics should be zero")
	}
}

func TestCorrelationPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if c := Correlation(xs, ys); !almostEq(c, 1, 1e-12) {
		t.Fatalf("Correlation = %v, want 1", c)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if c := Correlation(xs, neg); !almostEq(c, -1, 1e-12) {
		t.Fatalf("Correlation = %v, want -1", c)
	}
}

func TestCorrelationDegenerate(t *testing.T) {
	if c := Correlation([]float64{1, 1, 1}, []float64{1, 2, 3}); c != 0 {
		t.Fatalf("constant series correlation = %v", c)
	}
	if c := Correlation([]float64{1, 2}, []float64{1}); c != 0 {
		t.Fatalf("mismatched length correlation = %v", c)
	}
}

func TestCorrelationBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		// Keep magnitudes bounded: the estimator itself squares values, so
		// inputs near MaxFloat64 overflow to +Inf, which is out of scope.
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			xs[i] = math.Mod(x, 1e6)
			ys[i] = xs[i]*0.5 + float64(i%3)
		}
		c := Correlation(xs, ys)
		return c >= -1.0000001 && c <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMAEAndErrStdDev(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{2, 2, 1}
	if m := MAE(pred, truth); !almostEq(m, 1, 1e-12) {
		t.Fatalf("MAE = %v", m)
	}
	// errors: -1, 0, 2; mean 1/3; var = ((-4/3)^2+(1/3)^2+(5/3)^2)/3 = 14/9
	if sd := ErrStdDev(pred, truth); !almostEq(sd, math.Sqrt(14.0/9.0), 1e-12) {
		t.Fatalf("ErrStdDev = %v", sd)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{1.5, 2.5, 3.5, -4, 10, 0.25}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.n != len(xs) {
		t.Fatalf("n = %d", w.n)
	}
	if !almostEq(w.Mean(), Mean(xs), 1e-12) {
		t.Fatalf("Mean = %v, want %v", w.Mean(), Mean(xs))
	}
	if !almostEq(w.Variance(), Variance(xs), 1e-12) {
		t.Fatalf("Variance = %v, want %v", w.Variance(), Variance(xs))
	}
	if w.Min() != -4 || w.Max() != 10 {
		t.Fatalf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}
