package ml

// Flat-layout parity: the kd-tree became an implicit leaf-bucketed index
// over one contiguous coordinate array, M5P inference became an iterative
// walk over dense node columns. None of that may change a single prediction. This file keeps the
// pre-refactor implementations — the one-point-per-node pointer kd-tree
// and the recursive pointer-walk M5P inference — as oracles and proves
// the flat layouts reproduce them bit for bit on randomized datasets.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// --- oracle: the pre-refactor pointer kd-tree, verbatim ---

type oracleKDTree struct {
	points [][]float64
	nodes  []oracleKDNode
	root   int
}

type oracleKDNode struct {
	point       int
	axis        int
	left, right int
}

func buildOracleKDTree(points [][]float64, n int) *oracleKDTree {
	t := &oracleKDTree{points: points, nodes: make([]oracleKDNode, 0, n)}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(idx)
	return t
}

func (t *oracleKDTree) build(idx []int) int {
	if len(idx) == 0 {
		return -1
	}
	axis := t.widestAxis(idx)
	sort.Slice(idx, func(a, b int) bool {
		return t.points[idx[a]][axis] < t.points[idx[b]][axis]
	})
	mid := len(idx) / 2
	for mid > 0 && t.points[idx[mid-1]][axis] == t.points[idx[mid]][axis] {
		mid--
	}
	node := oracleKDNode{point: idx[mid], axis: axis, left: -1, right: -1}
	t.nodes = append(t.nodes, node)
	id := len(t.nodes) - 1
	left := append([]int(nil), idx[:mid]...)
	right := append([]int(nil), idx[mid+1:]...)
	l := t.build(left)
	r := t.build(right)
	t.nodes[id].left = l
	t.nodes[id].right = r
	return id
}

func (t *oracleKDTree) widestAxis(idx []int) int {
	if len(idx) == 0 || len(t.points[idx[0]]) == 0 {
		return 0
	}
	dims := len(t.points[idx[0]])
	best, bestSpread := 0, -1.0
	for d := 0; d < dims; d++ {
		lo, hi := t.points[idx[0]][d], t.points[idx[0]][d]
		for _, i := range idx[1:] {
			v := t.points[i][d]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if spread := hi - lo; spread > bestSpread {
			bestSpread = spread
			best = d
		}
	}
	return best
}

func (t *oracleKDTree) search(q []float64, k int, h *neighborHeap) {
	t.searchNode(t.root, q, k, h)
}

func (t *oracleKDTree) searchNode(id int, q []float64, k int, h *neighborHeap) {
	if id < 0 {
		return
	}
	node := t.nodes[id]
	p := t.points[node.point]
	if h.Len() < k {
		h.push(neighbor{node.point, sqDist(q, p)})
	} else if d2, within := sqDistWithin(q, p, (*h)[0].d2); within {
		(*h)[0] = neighbor{node.point, d2}
		h.fixRoot()
	}
	diff := q[node.axis] - p[node.axis]
	near, far := node.left, node.right
	if diff > 0 {
		near, far = node.right, node.left
	}
	t.searchNode(near, q, k, h)
	if h.Len() < k || diff*diff < (*h)[0].d2 {
		t.searchNode(far, q, k, h)
	}
}

// --- oracle: the pre-refactor recursive M5P inference, verbatim ---

// oracleM5PPredict routes the row down the pointer tree exactly as the
// old M5P.Predict did: recursive descent, along-path smoothing on the way
// back up, clamp to the training target range.
func oracleM5PPredict(root *m5pNode, cfg M5PConfig, yLo, yHi float64, x []float64) float64 {
	var v float64
	if !cfg.Smoothing {
		node := root
		for !node.isLeaf() {
			if x[node.feature] <= node.thresh {
				node = node.left
			} else {
				node = node.right
			}
		}
		v = node.lm.Predict(x)
	} else {
		v = oracleM5PSmoothed(root, cfg.SmoothK, x)
	}
	if cfg.ClampToRange {
		if v < yLo {
			v = yLo
		}
		if v > yHi {
			v = yHi
		}
	}
	return v
}

func oracleM5PSmoothed(node *m5pNode, smoothK float64, x []float64) float64 {
	if node.isLeaf() {
		return node.lm.Predict(x)
	}
	child := node.left
	if x[node.feature] > node.thresh {
		child = node.right
	}
	p := oracleM5PSmoothed(child, smoothK, x)
	q := node.lm.Predict(x)
	return (float64(node.n)*p + smoothK*q) / (float64(node.n) + smoothK)
}

// --- randomized parity datasets ---

// sparseParityData mimics the SLA feature shape that used to degenerate
// the old tree: continuous columns mixed with mostly-constant sparse
// columns (zero-heavy queue/deficit analogues). One column is always
// continuous so no two rows are identical and exact distance ties cannot
// make neighbour selection ambiguous.
func sparseParityData(rows int, seed uint64) *Dataset {
	s := rng.New(seed, 0)
	d := NewDataset([]string{"rps", "cpuMs", "grant", "deficit", "queue"})
	for i := 0; i < rows; i++ {
		deficit := 0.0
		if s.Uniform(0, 1) < 0.1 {
			deficit = s.Uniform(0, 1)
		}
		queue := 0.0
		if s.Uniform(0, 1) < 0.2 {
			queue = s.Uniform(0, 400)
		}
		row := []float64{
			s.Uniform(0.01, 300), // continuous: rows never collide exactly
			s.Uniform(2, 30),
			s.Uniform(5, 400),
			deficit,
			queue,
		}
		y := row[0]*0.002 + row[1]*0.01 - deficit*0.4 - queue*0.001 + s.Norm(0, 0.05)
		d.Add(row, y)
	}
	return d
}

// duplicateHeavyData draws every column from a tiny discrete value set, so
// exact duplicate rows — and therefore exact distance ties during
// neighbour selection — are the norm rather than the exception. This is
// the shape that would expose any batching scheme that reorders leaf
// visits between queries: under ties, selection depends on scan order.
func duplicateHeavyData(rows int, seed uint64) *Dataset {
	s := rng.New(seed, 7)
	vals := []float64{0, 1, 2, 5, 10}
	d := NewDataset([]string{"a", "b", "c", "d", "e"})
	for i := 0; i < rows; i++ {
		row := make([]float64, 5)
		for j := range row {
			k := int(s.Uniform(0, float64(len(vals))))
			if k >= len(vals) {
				k = len(vals) - 1
			}
			row[j] = vals[k]
		}
		d.Add(row, row[0]+row[1]*0.5-row[4]*0.1+s.Norm(0, 0.01))
	}
	return d
}

// TestBatchedKNNMatchesSequential is the batch-path property test: for
// dense, sparse and duplicate-heavy datasets, with the kd-tree and the
// brute-force index, for several K, PredictBatchBuf over every batch size
// 1..N must reproduce the sequential PredictBuf answers bit for bit —
// including on duplicate-heavy data where exact distance ties make any
// visit-order deviation visible. PredictBatch (the allocating convenience
// form) is held to the same standard.
func TestBatchedKNNMatchesSequential(t *testing.T) {
	const nQueries = 24
	for _, tc := range []struct {
		name string
		data *Dataset
	}{
		{"dense-2d", knnData(600, 51)},
		{"sparse-5d", sparseParityData(800, 52)},
		{"duplicate-heavy", duplicateHeavyData(700, 53)},
	} {
		for _, useTree := range []bool{true, false} {
			for _, k := range []int{1, 4} {
				knn, err := TrainKNN(tc.data, KNNConfig{K: k, UseKDTree: useTree, DistanceWeight: true})
				if err != nil {
					t.Fatal(err)
				}
				dims := tc.data.Width()
				s := rng.New(54, uint64(k))
				rows := make([][]float64, nQueries)
				flat := make([]float64, 0, nQueries*dims)
				for i := range rows {
					row := make([]float64, dims)
					for j := range row {
						row[j] = s.Uniform(-1, 12)
					}
					rows[i] = row
					flat = append(flat, row...)
				}
				var seqBuf Buf
				want := make([]float64, nQueries)
				for i, row := range rows {
					want[i] = knn.PredictBuf(row, &seqBuf)
				}
				got := make([]float64, nQueries)
				var batchBuf Buf
				for size := 1; size <= nQueries; size++ {
					for i := range got {
						got[i] = math.NaN()
					}
					for lo := 0; lo < nQueries; lo += size {
						hi := lo + size
						if hi > nQueries {
							hi = nQueries
						}
						knn.PredictBatchBuf(flat[lo*dims:hi*dims], hi-lo, got[lo:hi], &batchBuf)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s tree=%v K=%d batch=%d query %d: batch %v != sequential %v",
								tc.name, useTree, k, size, i, got[i], want[i])
						}
					}
				}
				for i, v := range knn.PredictBatch(rows) {
					if v != want[i] {
						t.Fatalf("%s tree=%v K=%d PredictBatch query %d: %v != %v",
							tc.name, useTree, k, i, v, want[i])
					}
				}
			}
		}
	}
}

// TestFlatKDTreeMatchesPointerOracle proves the leaf-bucketed flat tree
// selects the same neighbours and yields bit-identical predictions as the
// old one-point-per-node pointer tree, across dataset shapes, sizes and K.
func TestFlatKDTreeMatchesPointerOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		data *Dataset
	}{
		{"dense-2d", knnData(700, 11)},
		{"sparse-5d", sparseParityData(900, 12)},
		{"tiny", knnData(7, 13)}, // smaller than one leaf bucket
	} {
		for _, k := range []int{1, 4, 9} {
			knn, err := TrainKNN(tc.data, KNNConfig{K: k, UseKDTree: true, DistanceWeight: true})
			if err != nil {
				t.Fatal(err)
			}
			oracle := buildOracleKDTree(knn.x, len(knn.x))
			s := rng.New(14, uint64(k))
			var buf Buf
			for i := 0; i < 300; i++ {
				raw := make([]float64, tc.data.Width())
				for j := range raw {
					raw[j] = s.Uniform(-2, 310)
				}
				got := knn.PredictBuf(raw, &buf)

				// Oracle prediction through the old tree and the same blend.
				q := knn.std.Apply(raw)
				var h neighborHeap
				oracle.search(q, knn.cfg.K, &h)
				want := knn.blend(h.sortedInto(nil))

				if got != want {
					t.Fatalf("%s K=%d query %d: flat %v != oracle %v", tc.name, k, i, got, want)
				}
			}
		}
	}
}

// TestFlatM5PMatchesPointerOracle proves the dense-column iterative
// inference is bit-identical to the recursive pointer walk on the same
// grown-and-pruned tree, across smoothing/pruning/clamping configs.
func TestFlatM5PMatchesPointerOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		data *Dataset
	}{
		{"piecewise", piecewiseData(900, 21, 0.4)},
		{"sparse", sparseParityData(700, 22)},
	} {
		for _, cfg := range []M5PConfig{
			DefaultM5PConfig(4),
			{MinLeaf: 2, Smoothing: true, SmoothK: 15, Pruning: false, ClampToRange: false, Ridge: 1e-6, SDRThreshold: 0.01},
			{MinLeaf: 8, Smoothing: false, Pruning: true, PruneFactor: 1, ClampToRange: true, Ridge: 1e-6, SDRThreshold: 0.05},
		} {
			m, err := TrainM5P(tc.data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Re-grow the pointer tree with the identical deterministic
			// recipe; the compile step is exactly what is under test.
			norm := m.cfg // TrainM5P normalises zero-valued knobs
			oracleTree := &M5P{cfg: norm}
			idx := make([]int, tc.data.Len())
			for i := range idx {
				idx[i] = i
			}
			root := oracleTree.grow(tc.data, idx, stddevAt(tc.data, idx))
			if norm.Pruning {
				oracleTree.prune(tc.data, root, idx)
			}

			s := rng.New(23, 1)
			for i := 0; i < 400; i++ {
				x := make([]float64, tc.data.Width())
				for j := range x {
					x[j] = s.Uniform(-5, 320)
				}
				got := m.Predict(x)
				want := oracleM5PPredict(root, norm, m.yLo, m.yHi, x)
				if norm.Smoothing {
					// The compiled tree folds the along-path blend into one
					// effective model per leaf — the same affine function the
					// recursive blend computes, associated differently — so
					// the oracle pins it to a tight relative tolerance rather
					// than bit equality.
					scale := math.Abs(want)
					if scale < 1 {
						scale = 1
					}
					if math.Abs(got-want) > 1e-9*scale {
						t.Fatalf("%s cfg %+v query %d: flat %v != smoothed oracle %v", tc.name, norm, i, got, want)
					}
				} else if got != want {
					t.Fatalf("%s cfg %+v query %d: flat %v != oracle %v", tc.name, norm, i, got, want)
				}
			}
		}
	}
}

// TestFlatLayoutsZeroAllocOnSparseShapes extends the allocation gate to
// the dataset shape that exercises the new layouts hardest: sparse
// mostly-constant columns (deep, unbalanced trees; long parent walks;
// leaf-bucket scans past duplicate-valued axes).
func TestFlatLayoutsZeroAllocOnSparseShapes(t *testing.T) {
	d := sparseParityData(1200, 41)
	knn, err := TrainKNN(d, DefaultKNNConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	m5p, err := TrainM5P(d, M5PConfig{MinLeaf: 2, Smoothing: true, SmoothK: 15, SDRThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]float64{
		{10, 5, 50, 0, 0}, {250, 25, 380, 0.8, 350}, {100, 10, 5, 0, 120},
	}
	var buf Buf
	for _, q := range queries { // warm the scratch
		if math.IsNaN(knn.PredictBuf(q, &buf) + m5p.Predict(q)) {
			t.Fatal("NaN prediction")
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, q := range queries {
			knn.PredictBuf(q, &buf)
			m5p.Predict(q)
		}
	})
	if allocs != 0 {
		t.Fatalf("flat-layout inference allocates %.1f objects per round, want 0", allocs)
	}
}
