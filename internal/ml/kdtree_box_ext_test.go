package ml_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/rng"
)

// TestKDTreeBoxPruneMatchesPlaneOracle proves box pruning changes nothing
// but the work: on sparse, duplicate-heavy 5-D data and on the SLA
// predictor's own training set, every query — training rows (exact
// ties), jittered rows, midpoints and points far outside the data's
// bounding box — leaves the same heap as the plane-pruned oracle, and
// scans no more points.
func TestKDTreeBoxPruneMatchesPlaneOracle(t *testing.T) {
	bundle, err := experiments.TrainedBundle(42)
	if err != nil {
		t.Fatal(err)
	}
	sla, ok := bundle.VMSLA.(*ml.KNN)
	if !ok {
		t.Fatalf("SLA model is %T, want *ml.KNN", bundle.VMSLA)
	}
	train := func(d *ml.Dataset, k int) *ml.KNN {
		knn, err := ml.TrainKNN(d, ml.KNNConfig{K: k, UseKDTree: true, DistanceWeight: true})
		if err != nil {
			t.Fatal(err)
		}
		return knn
	}
	for _, tc := range []struct {
		name string
		knn  *ml.KNN
	}{
		{"sparse-5d/K=1", train(ml.SparseParityData(900, 61), 1)},
		{"sparse-5d/K=4", train(ml.SparseParityData(900, 62), 4)},
		{"duplicate-heavy/K=4", train(ml.DuplicateHeavyData(800, 63), 4)},
		{"duplicate-heavy/K=9", train(ml.DuplicateHeavyData(800, 64), 9)},
		{"sla-bundle-42", sla},
	} {
		box, plane, err := ml.BoxPruneVsPlane(tc.knn, func(rows [][]float64) [][]float64 {
			return oracleQueries(rows, 600)
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %d points scanned, plane oracle %d", tc.name, box, plane)
	}
}

// oracleQueries draws n queries around the rows (standardized space):
// exact rows, rows with small jitter, midpoints of two rows, and points
// beyond the rows' bounding box on one or all axes.
func oracleQueries(rows [][]float64, n int) [][]float64 {
	dims := len(rows[0])
	lo := append([]float64(nil), rows[0]...)
	hi := append([]float64(nil), rows[0]...)
	for _, r := range rows {
		for d, v := range r {
			lo[d], hi[d] = min(lo[d], v), max(hi[d], v)
		}
	}
	s := rng.New(65, uint64(len(rows)))
	pick := func() []float64 { return rows[int(s.Uniform(0, float64(len(rows))))%len(rows)] }
	out := make([][]float64, n)
	for i := range out {
		q := append([]float64(nil), pick()...)
		switch i % 4 {
		case 1:
			for d := range q {
				q[d] += s.Norm(0, 0.05)
			}
		case 2:
			o := pick()
			for d := range q {
				q[d] = (q[d] + o[d]) / 2
			}
		case 3:
			for d := range q {
				if i%8 == 3 && d != i%dims {
					continue // outside on one axis only
				}
				span := hi[d] - lo[d] + 1
				if s.Uniform(0, 1) < 0.5 {
					q[d] = lo[d] - s.Uniform(0.1, 3)*span
				} else {
					q[d] = hi[d] + s.Uniform(0.1, 3)*span
				}
			}
		}
		out[i] = q
	}
	return out
}
