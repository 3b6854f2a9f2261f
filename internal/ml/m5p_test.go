package ml

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// piecewiseData builds the canonical M5P-friendly target: two different
// linear regimes split on x0.
func piecewiseData(n int, seed uint64, noise float64) *Dataset {
	s := rng.New(seed, 0)
	d := NewDataset([]string{"x0", "x1"})
	for i := 0; i < n; i++ {
		x0 := s.Uniform(0, 10)
		x1 := s.Uniform(0, 10)
		var y float64
		if x0 <= 5 {
			y = 1 + 2*x0 + 0.5*x1
		} else {
			y = 40 - 3*x0 + 0.1*x1
		}
		if noise > 0 {
			y += s.Norm(0, noise)
		}
		d.Add([]float64{x0, x1}, y)
	}
	return d
}

func TestM5PLearnsPiecewiseLinear(t *testing.T) {
	d := piecewiseData(800, 1, 0.1)
	m, err := TrainM5P(d, DefaultM5PConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	test := piecewiseData(200, 2, 0)
	rep := Evaluate(m, test)
	if rep.Correlation < 0.99 {
		t.Fatalf("correlation = %v, want > 0.99", rep.Correlation)
	}
	if rep.MAE > 0.5 {
		t.Fatalf("MAE = %v", rep.MAE)
	}
	if numLeaves(m) < 2 {
		t.Fatalf("tree did not split: %d leaves", numLeaves(m))
	}
}

func TestM5PBeatsPlainLinearOnPiecewiseData(t *testing.T) {
	d := piecewiseData(800, 3, 0.2)
	test := piecewiseData(200, 4, 0)
	m5, err := TrainM5P(d, DefaultM5PConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	lin, err := TrainLinear(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	m5MAE := Evaluate(m5, test).MAE
	linMAE := Evaluate(lin, test).MAE
	if m5MAE >= linMAE {
		t.Fatalf("M5P (%v) should beat linear (%v) on piecewise data", m5MAE, linMAE)
	}
}

func TestM5PPureLinearCollapses(t *testing.T) {
	// On truly linear data pruning should collapse to few leaves and the
	// predictions should match the plane.
	s := rng.New(5, 5)
	d := NewDataset([]string{"x"})
	for i := 0; i < 400; i++ {
		x := s.Uniform(0, 100)
		d.Add([]float64{x}, 3*x+7)
	}
	m, err := TrainM5P(d, DefaultM5PConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if numLeaves(m) > 3 {
		t.Fatalf("pruning left %d leaves on linear data", numLeaves(m))
	}
	if got := m.Predict([]float64{50}); math.Abs(got-157) > 1.5 {
		t.Fatalf("Predict(50) = %v, want ~157", got)
	}
}

func TestM5PMinLeafRespected(t *testing.T) {
	d := piecewiseData(100, 6, 0.1)
	m, err := TrainM5P(d, M5PConfig{MinLeaf: 50, Pruning: false})
	if err != nil {
		t.Fatal(err)
	}
	// With MinLeaf=50 of 100 rows, at most one split is possible.
	if numLeaves(m) > 2 {
		t.Fatalf("MinLeaf violated: %d leaves", numLeaves(m))
	}
}

func TestM5PSmoothingChangesPredictions(t *testing.T) {
	d := piecewiseData(400, 7, 0.5)
	smooth, err := TrainM5P(d, M5PConfig{MinLeaf: 4, Smoothing: true, SmoothK: 15, Pruning: false})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := TrainM5P(d, M5PConfig{MinLeaf: 4, Smoothing: false, Pruning: false})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for x0 := 0.5; x0 < 10; x0 += 0.5 {
		diff += math.Abs(smooth.Predict([]float64{x0, 5}) - raw.Predict([]float64{x0, 5}))
	}
	if diff == 0 {
		t.Fatal("smoothing had no effect anywhere")
	}
}

func TestM5PPruningReducesLeaves(t *testing.T) {
	d := piecewiseData(400, 8, 2.0) // noisy: unpruned tree overfits
	unpruned, err := TrainM5P(d, M5PConfig{MinLeaf: 4, Pruning: false})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := TrainM5P(d, M5PConfig{MinLeaf: 4, Pruning: true, PruneFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if numLeaves(pruned) > numLeaves(unpruned) {
		t.Fatalf("pruning grew the tree: %d > %d", numLeaves(pruned), numLeaves(unpruned))
	}
}

func TestM5PEmptyAndDegenerate(t *testing.T) {
	if _, err := TrainM5P(NewDataset(nil), DefaultM5PConfig(4)); err == nil {
		t.Fatal("accepted empty dataset")
	}
	// Single row: must produce a working (constant) model.
	d := NewDataset([]string{"x"})
	d.Add([]float64{1}, 42)
	m, err := TrainM5P(d, DefaultM5PConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{1}); math.Abs(got-42) > 1e-6 {
		t.Fatalf("single-row Predict = %v", got)
	}
}

func TestM5PConstantTarget(t *testing.T) {
	d := NewDataset([]string{"x"})
	s := rng.New(9, 9)
	for i := 0; i < 100; i++ {
		d.Add([]float64{s.Uniform(0, 1)}, 5)
	}
	m, err := TrainM5P(d, DefaultM5PConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if numLeaves(m) != 1 {
		t.Fatalf("constant target grew %d leaves", numLeaves(m))
	}
	if got := m.Predict([]float64{0.5}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestM5PDuplicateFeatureValues(t *testing.T) {
	// All x identical: no split possible, must not loop or panic.
	d := NewDataset([]string{"x"})
	for i := 0; i < 50; i++ {
		d.Add([]float64{1}, float64(i))
	}
	m, err := TrainM5P(d, DefaultM5PConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if numLeaves(m) != 1 {
		t.Fatalf("split on constant feature: %d leaves", numLeaves(m))
	}
}

func TestM5PDepthAndString(t *testing.T) {
	d := piecewiseData(400, 10, 0.1)
	m, err := TrainM5P(d, DefaultM5PConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if treeDepth(m) < 1 {
		t.Fatal("depth < 1")
	}
	if s := m.String(); len(s) == 0 {
		t.Fatal("empty String()")
	}
}

func TestM5PConfigDefaults(t *testing.T) {
	// Invalid values fall back to sane defaults rather than failing.
	d := piecewiseData(100, 11, 0.1)
	m, err := TrainM5P(d, M5PConfig{MinLeaf: 0, SmoothK: -1, PruneFactor: -2, Pruning: true, Smoothing: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{5, 5}) == 0 {
		t.Fatal("degenerate config produced dead model")
	}
}

func TestAdjustedError(t *testing.T) {
	if adjustedError(1, 10, 2, 1) <= 1 {
		t.Fatal("penalty should inflate error")
	}
	if adjustedError(1, 2, 5, 1) != 10 {
		t.Fatalf("n<=v case = %v", adjustedError(1, 2, 5, 1))
	}
}

func TestSDFromMoments(t *testing.T) {
	// values {1,2,3}: sum 6, sq 14, n 3 => sd = sqrt(14/3 - 4) = sqrt(2/3)
	got := sdFromMoments(6, 14, 3)
	if math.Abs(got-math.Sqrt(2.0/3.0)) > 1e-12 {
		t.Fatalf("sdFromMoments = %v", got)
	}
	if sdFromMoments(0, 0, 0) != 0 {
		t.Fatal("empty moments sd != 0")
	}
	// Catastrophic cancellation must clamp, not NaN.
	if v := sdFromMoments(1e8, 1e8*1e8/4-1e-6, 4); math.IsNaN(v) {
		t.Fatal("sd NaN on cancellation")
	}
}

// numLeaves counts the tree's leaf linear models.
func numLeaves(m *M5P) int {
	leaves := 0
	for _, f := range m.feature {
		if f < 0 {
			leaves++
		}
	}
	return leaves
}

// treeDepth is the maximum depth of the tree (a single leaf has depth 1).
func treeDepth(m *M5P) int {
	if len(m.feature) == 0 {
		return 0
	}
	// depth[id] is one more than its parent's; records are appended so a
	// parent always precedes its children and one forward pass suffices.
	best := 0
	depth := make([]int, len(m.feature))
	for id := range m.feature {
		if p := m.parent[id]; p >= 0 {
			depth[id] = depth[p] + 1
		}
		if depth[id] > best {
			best = depth[id]
		}
	}
	return best + 1
}
