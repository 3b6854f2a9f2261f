package ml

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestTrainLinearExactFit(t *testing.T) {
	// y = 3 + 2*x0 - 5*x1, noiseless.
	d := NewDataset([]string{"x0", "x1"})
	s := rng.New(1, 1)
	for i := 0; i < 50; i++ {
		x0, x1 := s.Uniform(-10, 10), s.Uniform(-10, 10)
		d.Add([]float64{x0, x1}, 3+2*x0-5*x1)
	}
	lm, err := TrainLinear(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lm.Intercept-3) > 1e-8 {
		t.Fatalf("intercept = %v", lm.Intercept)
	}
	if math.Abs(lm.Coef[0]-2) > 1e-8 || math.Abs(lm.Coef[1]+5) > 1e-8 {
		t.Fatalf("coefs = %v", lm.Coef)
	}
	if got := lm.Predict([]float64{1, 1}); math.Abs(got-0) > 1e-8 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestTrainLinearNoisyRecovery(t *testing.T) {
	d := NewDataset([]string{"x"})
	s := rng.New(2, 2)
	for i := 0; i < 500; i++ {
		x := s.Uniform(0, 100)
		d.Add([]float64{x}, 10+0.5*x+s.Norm(0, 1))
	}
	lm, err := TrainLinear(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lm.Coef[0]-0.5) > 0.02 {
		t.Fatalf("slope = %v", lm.Coef[0])
	}
	if math.Abs(lm.Intercept-10) > 1.0 {
		t.Fatalf("intercept = %v", lm.Intercept)
	}
}

func TestTrainLinearErrors(t *testing.T) {
	if _, err := TrainLinear(NewDataset(nil), 0); err == nil {
		t.Fatal("accepted empty dataset")
	}
	d := NewDataset([]string{"x"})
	d.Add([]float64{1}, 1)
	if _, err := TrainLinear(d, -1); err == nil {
		t.Fatal("accepted negative lambda")
	}
	bad := &Dataset{X: [][]float64{{1}, {1, 2}}, Y: []float64{1, 2}}
	if _, err := TrainLinear(bad, 0); err == nil {
		t.Fatal("accepted ragged rows")
	}
}

func TestTrainLinearUnderdetermined(t *testing.T) {
	// 2 rows, 3 features: auto-ridge must still give a finite solution.
	d := NewDataset([]string{"a", "b", "c"})
	d.Add([]float64{1, 2, 3}, 1)
	d.Add([]float64{4, 5, 6}, 2)
	lm, err := TrainLinear(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range lm.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("non-finite coef: %v", lm.Coef)
		}
	}
}

func TestTrainLinearCollinearColumns(t *testing.T) {
	// x1 = 2*x0 exactly; ridge keeps the solve stable.
	d := NewDataset([]string{"x0", "x1"})
	s := rng.New(3, 3)
	for i := 0; i < 60; i++ {
		x := s.Uniform(0, 10)
		d.Add([]float64{x, 2 * x}, 7*x+1)
	}
	lm, err := TrainLinear(d, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Individual coefficients are not identified, but predictions must be.
	for i := 0; i < 10; i++ {
		x := s.Uniform(0, 10)
		if got := lm.Predict([]float64{x, 2 * x}); math.Abs(got-(7*x+1)) > 1e-3 {
			t.Fatalf("prediction off on collinear data: %v vs %v", got, 7*x+1)
		}
	}
}

func TestTrainLinearConstantColumn(t *testing.T) {
	d := NewDataset([]string{"x", "const"})
	s := rng.New(4, 4)
	for i := 0; i < 40; i++ {
		x := s.Uniform(-5, 5)
		d.Add([]float64{x, 3}, 2*x)
	}
	lm, err := TrainLinear(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := lm.Predict([]float64{1, 3}); math.Abs(got-2) > 1e-6 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	d := NewDataset([]string{"x"})
	s := rng.New(5, 5)
	for i := 0; i < 100; i++ {
		x := s.Uniform(-1, 1)
		d.Add([]float64{x}, 4*x)
	}
	ols, _ := TrainLinear(d, 0)
	ridge, _ := TrainLinear(d, 100)
	if math.Abs(ridge.Coef[0]) >= math.Abs(ols.Coef[0]) {
		t.Fatalf("ridge did not shrink: %v vs %v", ridge.Coef[0], ols.Coef[0])
	}
}

func TestLinearPredictShortRow(t *testing.T) {
	lm := &Linear{Intercept: 1, Coef: []float64{2, 3}}
	if got := lm.Predict([]float64{10}); got != 21 {
		t.Fatalf("short-row Predict = %v", got)
	}
}

func TestMeanModel(t *testing.T) {
	d := &Dataset{X: [][]float64{{0}, {0}, {0}, {0}}, Y: []float64{2, 4, 6, 100}}
	m := meanModel(d, []int{0, 1, 2})
	if m.Intercept != 4 || len(m.Coef) != 0 {
		t.Fatalf("meanModel = %+v", m)
	}
	if meanModel(d, nil).Intercept != 0 {
		t.Fatal("empty meanModel should predict 0")
	}
}

func TestLinearRecoversRandomPlanesProperty(t *testing.T) {
	f := func(seed uint64, rawA, rawB, rawC float64) bool {
		a := math.Mod(rawA, 50)
		b := math.Mod(rawB, 50)
		c := math.Mod(rawC, 50)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		s := rng.New(seed, 99)
		d := NewDataset([]string{"x0", "x1"})
		for i := 0; i < 30; i++ {
			x0, x1 := s.Uniform(-3, 3), s.Uniform(-3, 3)
			d.Add([]float64{x0, x1}, c+a*x0+b*x1)
		}
		lm, err := TrainLinear(d, 0)
		if err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			x0, x1 := s.Uniform(-3, 3), s.Uniform(-3, 3)
			want := c + a*x0 + b*x1
			if math.Abs(lm.Predict([]float64{x0, x1})-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNumParams(t *testing.T) {
	lm := &Linear{Intercept: 0, Coef: make([]float64, 3)}
	if lm.NumParams() != 4 {
		t.Fatalf("NumParams = %d", lm.NumParams())
	}
}
