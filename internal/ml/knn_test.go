package ml

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// neighbors returns a query's K nearest training rows, nearest first: the
// heap PredictBuf blends, exposed so tests can compare searches.
func neighbors(k *KNN, x []float64) []neighbor {
	var b Buf
	b.row = k.std.Apply(x)
	if k.tree != nil {
		k.tree.search(b.row, k.cfg.K, &b)
	} else {
		k.bruteSearch(b.row, &b)
	}
	return b.heap.sortedInto(nil)
}

func knnData(n int, seed uint64) *Dataset {
	s := rng.New(seed, 0)
	d := NewDataset([]string{"x0", "x1"})
	for i := 0; i < n; i++ {
		x0, x1 := s.Uniform(0, 10), s.Uniform(0, 10)
		d.Add([]float64{x0, x1}, math.Sin(x0)+0.5*x1)
	}
	return d
}

func TestKNNExactNeighborRecall(t *testing.T) {
	d := NewDataset([]string{"x"})
	for i := 0; i < 10; i++ {
		d.Add([]float64{float64(i)}, float64(i)*10)
	}
	k, err := TrainKNN(d, KNNConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Query at 5.1: neighbours 5, 6, 4 -> mean(50, 60, 40) = 50.
	if got := k.Predict([]float64{5.1}); math.Abs(got-50) > 1e-9 {
		t.Fatalf("Predict = %v, want 50", got)
	}
}

func TestKNNBruteEqualsKDTree(t *testing.T) {
	d := knnData(500, 1)
	brute, err := TrainKNN(d, KNNConfig{K: 4, UseKDTree: false})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := TrainKNN(d, KNNConfig{K: 4, UseKDTree: true})
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(2, 2)
	for i := 0; i < 200; i++ {
		q := []float64{s.Uniform(-1, 11), s.Uniform(-1, 11)}
		pb := brute.Predict(q)
		pt := tree.Predict(q)
		if math.Abs(pb-pt) > 1e-9 {
			// Allow differences only from exact distance ties.
			nb := neighbors(brute, q)
			nt := neighbors(tree, q)
			db := nb[len(nb)-1].d2
			dt := nt[len(nt)-1].d2
			if math.Abs(db-dt) > 1e-9 {
				t.Fatalf("brute %v != kdtree %v at %v", pb, pt, q)
			}
		}
	}
}

func TestKNNNeighborsSortedAscending(t *testing.T) {
	d := knnData(300, 3)
	k, err := TrainKNN(d, DefaultKNNConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	nb := neighbors(k, []float64{5, 5})
	if len(nb) != 6 {
		t.Fatalf("got %d neighbours", len(nb))
	}
	if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i].d2 < nb[j].d2 }) {
		t.Fatalf("neighbours not ascending: %+v", nb)
	}
}

func TestKNNDistanceWeighting(t *testing.T) {
	d := NewDataset([]string{"x"})
	d.Add([]float64{0}, 0)
	d.Add([]float64{10}, 100)
	uni, _ := TrainKNN(d, KNNConfig{K: 2})
	wgt, _ := TrainKNN(d, KNNConfig{K: 2, DistanceWeight: true})
	// Query near 0: uniform gives 50, weighted pulls toward 0.
	pu := uni.Predict([]float64{1})
	pw := wgt.Predict([]float64{1})
	if math.Abs(pu-50) > 1e-9 {
		t.Fatalf("uniform = %v", pu)
	}
	if pw >= pu {
		t.Fatalf("weighted (%v) should be below uniform (%v)", pw, pu)
	}
}

func TestKNNKClamping(t *testing.T) {
	d := NewDataset([]string{"x"})
	d.Add([]float64{0}, 1)
	d.Add([]float64{1}, 3)
	k, err := TrainKNN(d, KNNConfig{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if k.K() != 2 {
		t.Fatalf("K = %d, want clamp to 2", k.K())
	}
	if got := k.Predict([]float64{0.5}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Predict = %v", got)
	}
	// K <= 0 falls back to 4 (paper default).
	k2, err := TrainKNN(knnData(50, 4), KNNConfig{K: 0})
	if err != nil {
		t.Fatal(err)
	}
	if k2.K() != 4 {
		t.Fatalf("default K = %d", k2.K())
	}
}

func TestKNNEmpty(t *testing.T) {
	if _, err := TrainKNN(NewDataset(nil), DefaultKNNConfig(4)); err == nil {
		t.Fatal("accepted empty dataset")
	}
}

func TestKNNStandardizationMatters(t *testing.T) {
	// One feature spans [0, 1000], the other [0, 1] but carries the signal.
	// Standardization lets the small-scale feature contribute.
	s := rng.New(5, 5)
	d := NewDataset([]string{"big", "small"})
	for i := 0; i < 400; i++ {
		big := s.Uniform(0, 1000)
		small := s.Uniform(0, 1)
		d.Add([]float64{big, small}, 100*small)
	}
	k, err := TrainKNN(d, DefaultKNNConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var pred, truth []float64
	for i := 0; i < 100; i++ {
		big := s.Uniform(0, 1000)
		small := s.Uniform(0, 1)
		pred = append(pred, k.Predict([]float64{big, small}))
		truth = append(truth, 100*small)
	}
	mae := 0.0
	for i := range pred {
		mae += math.Abs(pred[i] - truth[i])
	}
	mae /= float64(len(pred))
	if mae > 12 {
		t.Fatalf("MAE = %v; standardization not effective", mae)
	}
}

func TestKDTreePropertyMatchesBrute(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		d := knnData(120, seed)
		brute, err := TrainKNN(d, KNNConfig{K: k, UseKDTree: false})
		if err != nil {
			return false
		}
		tree, err := TrainKNN(d, KNNConfig{K: k, UseKDTree: true})
		if err != nil {
			return false
		}
		s := rng.New(seed, 77)
		for i := 0; i < 20; i++ {
			q := []float64{s.Uniform(0, 10), s.Uniform(0, 10)}
			nb := neighbors(brute, q)
			nt := neighbors(tree, q)
			if len(nb) != len(nt) {
				return false
			}
			// Distances must agree (indices may differ on exact ties).
			for j := range nb {
				if math.Abs(nb[j].d2-nt[j].d2) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKDTreeSingletonAndDuplicates(t *testing.T) {
	d := NewDataset([]string{"x"})
	for i := 0; i < 20; i++ {
		d.Add([]float64{1}, 2) // all identical points
	}
	k, err := TrainKNN(d, DefaultKNNConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Predict([]float64{1}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("duplicate-point Predict = %v", got)
	}
}
