package ml

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// allocDataset synthesises a noisy piecewise-linear regression problem big
// enough that the kd-tree and model tree take non-trivial shapes.
func allocDataset(rows int) *Dataset {
	stream := rng.New(99, 1)
	d := NewDataset([]string{"a", "b", "c"})
	for i := 0; i < rows; i++ {
		a := stream.Uniform(0, 100)
		b := stream.Uniform(-5, 5)
		c := stream.Uniform(0, 1)
		y := 3*a + 10*b*c + stream.Norm(0, 2)
		if a > 50 {
			y += 40 - 0.5*a
		}
		d.Add([]float64{a, b, c}, y)
	}
	return d
}

// TestInferenceZeroAlloc proves the buffered prediction paths of every
// model allocate nothing once the scratch is warm, and that they return
// exactly what the allocating API returns.
func TestInferenceZeroAlloc(t *testing.T) {
	d := allocDataset(400)
	queries := [][]float64{
		{10, 0, 0.5}, {55, -3, 0.9}, {80, 4, 0.1}, {99, 0, 0}, {33, 2, 0.7},
	}

	m5p, err := TrainM5P(d, DefaultM5PConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	knnBrute, err := TrainKNN(d, KNNConfig{K: 4, DistanceWeight: true})
	if err != nil {
		t.Fatal(err)
	}
	knnTree, err := TrainKNN(d, KNNConfig{K: 4, DistanceWeight: true, UseKDTree: true})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		predict func(x []float64, b *Buf) float64
		plain   func(x []float64) float64
	}{
		{"m5p", func(x []float64, _ *Buf) float64 { return m5p.Predict(x) }, m5p.Predict},
		{"knn-brute", knnBrute.PredictBuf, knnBrute.Predict},
		{"knn-kdtree", knnTree.PredictBuf, knnTree.Predict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf Buf
			for _, q := range queries { // warm the scratch
				got := tc.predict(q, &buf)
				want := tc.plain(q)
				if got != want {
					t.Fatalf("buffered prediction %v != allocating %v for %v", got, want, q)
				}
				if math.IsNaN(got) {
					t.Fatalf("NaN prediction for %v", q)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				for _, q := range queries {
					tc.predict(q, &buf)
				}
			})
			if allocs != 0 {
				t.Fatalf("buffered inference allocates %.1f objects per round, want 0", allocs)
			}
		})
	}
}

// TestBatchPredictZeroAlloc extends the allocation gate to the batch
// query path: once the shared Buf is warm (row, heap, traversal stack),
// a whole batch through PredictBatchBuf allocates nothing.
func TestBatchPredictZeroAlloc(t *testing.T) {
	d := allocDataset(1000)
	knn, err := TrainKNN(d, DefaultKNNConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	stream := rng.New(7, 3)
	flat := make([]float64, 0, n*d.Width())
	for i := 0; i < n; i++ {
		flat = append(flat, stream.Uniform(0, 100), stream.Uniform(-5, 5), stream.Uniform(0, 1))
	}
	out := make([]float64, n)
	var buf Buf
	knn.PredictBatchBuf(flat, n, out, &buf) // warm the scratch
	for _, v := range out {
		if math.IsNaN(v) {
			t.Fatal("NaN prediction")
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		knn.PredictBatchBuf(flat, n, out, &buf)
	})
	if allocs != 0 {
		t.Fatalf("batch inference allocates %.1f objects per batch, want 0", allocs)
	}
}

// TestKNNTreeMatchesBruteBuffered re-checks the kd-tree/brute equivalence
// through the buffered path specifically.
func TestKNNTreeMatchesBruteBuffered(t *testing.T) {
	d := allocDataset(300)
	brute, err := TrainKNN(d, KNNConfig{K: 4, DistanceWeight: true})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := TrainKNN(d, KNNConfig{K: 4, DistanceWeight: true, UseKDTree: true})
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 Buf
	stream := rng.New(5, 2)
	for i := 0; i < 200; i++ {
		q := []float64{stream.Uniform(0, 100), stream.Uniform(-5, 5), stream.Uniform(0, 1)}
		pb := brute.PredictBuf(q, &b1)
		pt := tree.PredictBuf(q, &b2)
		if math.Abs(pb-pt) > 1e-9 {
			t.Fatalf("tree %v != brute %v at %v", pt, pb, q)
		}
	}
}
