package ml

// Buf is reusable inference scratch: the standardized-query row, the
// neighbour buffers and the kd-traversal stack a k-NN query needs. Passing
// one Buf through repeated predictions makes inference allocation-free
// after the first call. The zero value is ready to use. A Buf must not be
// shared between goroutines.
type Buf struct {
	row    []float64
	heap   neighborHeap
	sorted []neighbor
	stack  []int32
	// Work accumulates the k-NN work done through this Buf.
	Work KNNWork
}

// KNNWork counts k-NN search work: queries answered, kd-tree leaves
// scanned and training points compared against the query (a brute-force
// query compares every point and scans no leaf). The counts are
// cumulative; diff two readings to measure the work in between.
type KNNWork struct {
	Queries, Leaves, Points int64
}

// Sub returns the element-wise difference w - o.
func (w KNNWork) Sub(o KNNWork) KNNWork {
	return KNNWork{w.Queries - o.Queries, w.Leaves - o.Leaves, w.Points - o.Points}
}

// BufferedRegressor is a Regressor with an allocation-free prediction path
// over caller-provided scratch. PredictBuf must return exactly the value
// Predict returns for the same row.
type BufferedRegressor interface {
	Regressor
	PredictBuf(x []float64, b *Buf) float64
}

// BatchRegressor is a BufferedRegressor that answers many queries in one
// call over shared scratch. xs holds n feature rows row-major
// (len(xs) == n*dims); out receives one prediction per row. The batch
// path must be bit-identical to calling PredictBuf row by row — batching
// amortizes scratch setup and keeps the index hot, it never reorders the
// per-query arithmetic.
type BatchRegressor interface {
	BufferedRegressor
	PredictBatchBuf(xs []float64, n int, out []float64, b *Buf)
}

// PredictBuffered routes through the zero-alloc path when the regressor has
// one and falls back to the plain (possibly allocating) Predict otherwise.
func PredictBuffered(r Regressor, x []float64, b *Buf) float64 {
	if br, ok := r.(BufferedRegressor); ok {
		return br.PredictBuf(x, b)
	}
	return r.Predict(x)
}

// PredictBatchBuffered routes a row-major batch through the regressor's
// batch path when it has one and otherwise falls back to row-by-row
// buffered predictions — the results are identical either way.
func PredictBatchBuffered(r Regressor, xs []float64, n int, out []float64, b *Buf) {
	if n <= 0 {
		return
	}
	if br, ok := r.(BatchRegressor); ok {
		br.PredictBatchBuf(xs, n, out, b)
		return
	}
	d := len(xs) / n
	for i := 0; i < n; i++ {
		out[i] = PredictBuffered(r, xs[i*d:(i+1)*d], b)
	}
}
