package ml

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestDatasetAddValidate(t *testing.T) {
	d := NewDataset([]string{"a", "b"})
	d.Add([]float64{1, 2}, 3)
	if d.Len() != 1 || d.Width() != 2 {
		t.Fatalf("Len/Width = %d/%d", d.Len(), d.Width())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row width did not panic")
		}
	}()
	d.Add([]float64{1}, 0)
}

func TestDatasetAddCopiesRow(t *testing.T) {
	d := NewDataset([]string{"a"})
	row := []float64{1}
	d.Add(row, 5)
	row[0] = 99
	if d.X[0][0] != 1 {
		t.Fatal("Add aliased caller slice")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := &Dataset{X: [][]float64{{1, 2}}, Y: []float64{1, 2}}
	if err := d.Validate(); err == nil {
		t.Fatal("accepted X/Y length mismatch")
	}
	d2 := &Dataset{X: [][]float64{{1, 2}, {3}}, Y: []float64{1, 2}}
	if err := d2.Validate(); err == nil {
		t.Fatal("accepted ragged rows")
	}
}

func TestSplitFractions(t *testing.T) {
	d := NewDataset([]string{"x"})
	for i := 0; i < 100; i++ {
		d.Add([]float64{float64(i)}, float64(i))
	}
	train, test := d.Split(0.66, rng.New(1, 1))
	if train.Len() != 66 || test.Len() != 34 {
		t.Fatalf("split = %d/%d", train.Len(), test.Len())
	}
	// Union must cover all rows exactly once.
	seen := make(map[float64]bool)
	for _, y := range append(append([]float64{}, train.Y...), test.Y...) {
		if seen[y] {
			t.Fatalf("row duplicated across split: %v", y)
		}
		seen[y] = true
	}
	if len(seen) != 100 {
		t.Fatalf("split lost rows: %d", len(seen))
	}
}

func TestSplitDeterministicWithoutStream(t *testing.T) {
	d := NewDataset([]string{"x"})
	for i := 0; i < 10; i++ {
		d.Add([]float64{float64(i)}, float64(i))
	}
	train, test := d.Split(0.5, nil)
	for i := 0; i < 5; i++ {
		if train.Y[i] != float64(i) || test.Y[i] != float64(i+5) {
			t.Fatal("nil-stream split should preserve order")
		}
	}
}

func TestSplitEdges(t *testing.T) {
	d := NewDataset([]string{"x"})
	for i := 0; i < 10; i++ {
		d.Add([]float64{1}, 1)
	}
	tr, te := d.Split(0, nil)
	if tr.Len() != 0 || te.Len() != 10 {
		t.Fatal("frac 0 wrong")
	}
	tr, te = d.Split(2, nil)
	if tr.Len() != 10 || te.Len() != 0 {
		t.Fatal("frac > 1 wrong")
	}
}

func TestYRange(t *testing.T) {
	d := NewDataset([]string{"x"})
	if lo, hi := d.YRange(); lo != 0 || hi != 0 {
		t.Fatal("empty YRange not zero")
	}
	d.Add([]float64{0}, 5)
	d.Add([]float64{0}, -3)
	d.Add([]float64{0}, 9)
	lo, hi := d.YRange()
	if lo != -3 || hi != 9 {
		t.Fatalf("YRange = %v, %v", lo, hi)
	}
}

func TestStandardizer(t *testing.T) {
	d := NewDataset([]string{"a", "b"})
	d.Add([]float64{1, 10}, 0)
	d.Add([]float64{3, 10}, 0)
	s := FitStandardizer(d)
	if math.Abs(s.Mean[0]-2) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if math.Abs(s.Std[0]-1) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	// Constant column gets std 1 (maps to 0).
	if s.Std[1] != 1 {
		t.Fatalf("constant column std = %v", s.Std[1])
	}
	z := s.Apply([]float64{3, 10})
	if math.Abs(z[0]-1) > 1e-12 || z[1] != 0 {
		t.Fatalf("Apply = %v", z)
	}
}

func TestStandardizerEmpty(t *testing.T) {
	s := FitStandardizer(NewDataset([]string{"a"}))
	if s.Std[0] != 1 {
		t.Fatal("empty standardizer std should be 1")
	}
}

func TestSubset(t *testing.T) {
	d := NewDataset([]string{"x"})
	for i := 0; i < 5; i++ {
		d.Add([]float64{float64(i)}, float64(i*10))
	}
	sub := d.Subset([]int{4, 0})
	if sub.Len() != 2 || sub.Y[0] != 40 || sub.Y[1] != 0 {
		t.Fatalf("Subset = %+v", sub)
	}
}

func TestEvaluateReport(t *testing.T) {
	d := NewDataset([]string{"x"})
	for i := 0; i < 20; i++ {
		d.Add([]float64{float64(i)}, 2*float64(i))
	}
	lm, _ := TrainLinear(d, 0)
	rep := Evaluate(lm, d)
	if rep.Correlation < 0.999 {
		t.Fatalf("correlation = %v", rep.Correlation)
	}
	if rep.MAE > 1e-6 {
		t.Fatalf("MAE = %v", rep.MAE)
	}
	if rep.NTest != 20 {
		t.Fatalf("NTest = %d", rep.NTest)
	}
	if rep.RangeLo != 0 || rep.RangeHi != 38 {
		t.Fatalf("range = %v..%v", rep.RangeLo, rep.RangeHi)
	}
	if len(rep.String()) == 0 {
		t.Fatal("empty report string")
	}
}
