package ml

import (
	"fmt"
	"math"
)

// KNNConfig exposes the hyper-parameters of the k-NN regressor.
type KNNConfig struct {
	// K is the neighbour count; the paper's SLA predictor uses K=4.
	K int
	// DistanceWeight blends neighbours by 1/(d+eps) instead of uniformly.
	DistanceWeight bool
	// UseKDTree selects the kd-tree index instead of the brute-force scan.
	// Both return identical predictions; the tree is faster past a few
	// thousand training rows.
	UseKDTree bool
}

// DefaultKNNConfig mirrors the paper's WEKA IBk setup with the given K,
// with inverse-distance weighting (IBk's -I option): "comparing the
// current situation with those seen before and choosing the most similar
// one(s)" — similarity-weighted, so near-identical precedents dominate.
func DefaultKNNConfig(k int) KNNConfig {
	return KNNConfig{K: k, UseKDTree: true, DistanceWeight: true}
}

// KNN is a fitted k-nearest-neighbours regressor over z-scored features.
type KNN struct {
	cfg  KNNConfig
	std  *Standardizer
	x    [][]float64 // standardized training rows
	y    []float64
	tree *kdTree
}

// TrainKNN memorises the (standardized) training data.
func TrainKNN(d *Dataset, cfg KNNConfig) (*KNN, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: cannot fit k-NN on empty dataset")
	}
	if cfg.K < 1 {
		cfg.K = 4
	}
	if cfg.K > d.Len() {
		cfg.K = d.Len()
	}
	std := FitStandardizer(d)
	k := &KNN{cfg: cfg, std: std, y: append([]float64(nil), d.Y...)}
	k.x = make([][]float64, d.Len())
	for i, row := range d.X {
		k.x[i] = std.Apply(row)
	}
	if cfg.UseKDTree {
		k.tree = buildKDTree(k.x, d.Len())
	}
	return k, nil
}

// K returns the effective neighbour count.
func (k *KNN) K() int { return k.cfg.K }

// Predict averages the targets of the K nearest training rows.
func (k *KNN) Predict(x []float64) float64 {
	var b Buf
	return k.PredictBuf(x, &b)
}

// PredictBuf is Predict over caller-provided scratch: allocation-free once
// the Buf has warmed up, bit-identical to Predict.
func (k *KNN) PredictBuf(x []float64, b *Buf) float64 {
	b.row = k.std.ApplyInto(b.row, x)
	b.heap = b.heap[:0]
	if k.tree != nil {
		k.tree.search(b.row, k.cfg.K, b)
	} else {
		k.bruteSearch(b.row, b)
	}
	b.sorted = b.heap.sortedInto(b.sorted[:0])
	return k.blend(b.sorted)
}

// PredictBatch predicts every row of xs. Results are bit-identical to
// calling Predict per row; see PredictBatchBuf for the allocation-free
// form the schedulers use.
func (k *KNN) PredictBatch(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	var b Buf
	for i, x := range xs {
		out[i] = k.PredictBuf(x, &b)
	}
	return out
}

// PredictBatchBuf predicts n feature rows stored row-major in xs
// (len(xs) == n * feature-dims) into out[:n]. Every per-row result is
// bit-identical to PredictBuf on that row: the batch shares one
// standardized-row buffer, one neighbour heap and one traversal stack
// across all queries — a table fill pays the scratch setup once instead
// of per query — but each query's descent, leaf scans and blend run in
// exactly the per-query order. (A fused multi-query descent would reorder
// leaf visits between queries and break bit-identity under exact distance
// ties, which duplicate-heavy feature columns make common.)
func (k *KNN) PredictBatchBuf(xs []float64, n int, out []float64, b *Buf) {
	if n <= 0 {
		return
	}
	d := len(xs) / n
	for i := 0; i < n; i++ {
		out[i] = k.PredictBuf(xs[i*d:(i+1)*d], b)
	}
}

// Neighbors exposes the raw nearest neighbours (index, squared distance)
// for diagnostics and tests.
func (k *KNN) Neighbors(x []float64) []neighborInfo {
	var b Buf
	b.row = k.std.Apply(x)
	if k.tree != nil {
		k.tree.search(b.row, k.cfg.K, &b)
	} else {
		k.bruteSearch(b.row, &b)
	}
	nb := b.heap.sortedInto(nil)
	out := make([]neighborInfo, len(nb))
	for i, n := range nb {
		out[i] = neighborInfo{Index: n.idx, Dist2: n.d2, Y: k.y[n.idx]}
	}
	return out
}

type neighborInfo struct {
	Index int
	Dist2 float64
	Y     float64
}

type neighbor struct {
	idx int
	d2  float64
}

// bruteSearch is search without the index: every training row is
// compared against q.
func (k *KNN) bruteSearch(q []float64, b *Buf) {
	h := &b.heap
	b.Work.Queries++
	b.Work.Points += int64(len(k.x))
	for i, row := range k.x {
		d2 := sqDist(q, row)
		if h.Len() < k.cfg.K {
			h.push(neighbor{i, d2})
		} else if d2 < (*h)[0].d2 {
			(*h)[0] = neighbor{i, d2}
			h.fixRoot()
		}
	}
}

// blend combines neighbours in ascending-distance order; keeping the
// summation order fixed keeps predictions bit-identical across the
// allocating and buffered query paths.
func (k *KNN) blend(nb []neighbor) float64 {
	if len(nb) == 0 {
		return 0
	}
	if !k.cfg.DistanceWeight {
		s := 0.0
		for _, n := range nb {
			s += k.y[n.idx]
		}
		return s / float64(len(nb))
	}
	const eps = 1e-9
	var num, den float64
	for _, n := range nb {
		w := 1 / (math.Sqrt(n.d2) + eps)
		num += w * k.y[n.idx]
		den += w
	}
	return num / den
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// neighborHeap is a max-heap on distance so the worst of the current K
// candidates sits at the root for O(1) comparisons. The sift primitives
// replicate container/heap's algorithm exactly (same swap sequences, hence
// the same arrangement under distance ties) without the interface boxing
// that made every Push/Pop allocate.
type neighborHeap []neighbor

func (h neighborHeap) Len() int           { return len(h) }
func (h neighborHeap) less(i, j int) bool { return h[i].d2 > h[j].d2 }

// push appends v and restores the heap property (container/heap.Push).
func (h *neighborHeap) push(v neighbor) {
	*h = append(*h, v)
	h.up(len(*h) - 1)
}

// fixRoot re-establishes the heap property after the root was replaced
// (container/heap.Fix(h, 0): down only, since up(0) is a no-op).
func (h *neighborHeap) fixRoot() { h.down(0, len(*h)) }

// popMax removes and returns the root (container/heap.Pop).
func (h *neighborHeap) popMax() neighbor {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	v := old[n]
	*h = old[:n]
	return v
}

func (h neighborHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h neighborHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// sortedInto drains the heap into dst in ascending-distance order.
func (h *neighborHeap) sortedInto(dst []neighbor) []neighbor {
	n := h.Len()
	if cap(dst) < n {
		dst = make([]neighbor, n)
	}
	dst = dst[:n]
	for i := n - 1; i >= 0; i-- {
		dst[i] = h.popMax()
	}
	return dst
}

var (
	_ Regressor         = (*KNN)(nil)
	_ BufferedRegressor = (*KNN)(nil)
	_ BatchRegressor    = (*KNN)(nil)
)
