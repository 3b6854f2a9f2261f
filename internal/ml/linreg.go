package ml

import (
	"fmt"
	"math"
	"slices"
)

// Linear is a fitted linear model: yhat = Intercept + sum_j Coef[j]*x[j].
type Linear struct {
	Intercept float64
	Coef      []float64
}

// Predict evaluates the model on one row. Rows shorter than the
// coefficient vector are treated as zero-padded.
func (l *Linear) Predict(x []float64) float64 {
	y := l.Intercept
	for j, c := range l.Coef {
		if j < len(x) {
			y += c * x[j]
		}
	}
	return y
}

// NumParams returns the number of fitted parameters (for pruning criteria).
func (l *Linear) NumParams() int { return 1 + len(l.Coef) }

func (l *Linear) String() string {
	return fmt.Sprintf("linear(%d coefs, intercept %.4g)", len(l.Coef), l.Intercept)
}

// TrainLinear fits ordinary least squares with optional ridge penalty
// lambda (0 = OLS) by Householder QR on the design matrix augmented with an
// intercept column. The intercept is never penalised.
//
// When the system is under-determined (fewer rows than columns) a small
// ridge is applied automatically so a unique solution exists.
func TrainLinear(d *Dataset, lambda float64) (*Linear, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	var q lsq
	return q.fit(d, nil, lambda)
}

// lsq is the reusable workspace of one least-squares fit: the augmented
// design matrix stored column-major (column k is a[k*rows:(k+1)*rows]),
// the right-hand side and R's diagonal. M5P reuses one across every node
// of a tree.
type lsq struct {
	a, b, rdiag []float64
}

// fit solves the least-squares problem over rows idx of d (every row,
// in order, when idx is nil).
func (q *lsq) fit(d *Dataset, idx []int, lambda float64) (*Linear, error) {
	n, p := len(idx), d.Width()
	if idx == nil {
		n = d.Len()
	}
	if n == 0 {
		return nil, fmt.Errorf("ml: cannot fit linear model on empty dataset")
	}
	if lambda < 0 {
		return nil, fmt.Errorf("ml: negative ridge lambda %v", lambda)
	}
	cols := p + 1 // + intercept
	if n < cols && lambda == 0 {
		lambda = 1e-6
	}
	rows := n
	if lambda > 0 {
		rows += p // ridge rows for the p slope coefficients only
	}
	// Build the augmented system [X 1; sqrt(l) I 0] beta = [y; 0], with
	// the intercept column last. The slab is reused, so every entry is
	// written, the ridge rows' zeros included.
	q.a = slices.Grow(q.a[:0], rows*cols)[:rows*cols]
	q.b = slices.Grow(q.b[:0], rows)[:rows]
	q.rdiag = slices.Grow(q.rdiag[:0], cols)[:cols]
	a, b := q.a, q.b
	clear(a)
	for i := 0; i < n; i++ {
		r := i
		if idx != nil {
			r = idx[i]
		}
		for j, v := range d.X[r] {
			a[j*rows+i] = v
		}
		a[p*rows+i] = 1
		b[i] = d.Y[r]
	}
	if lambda > 0 {
		s := math.Sqrt(lambda)
		for j := 0; j < p; j++ {
			a[j*rows+n+j] = s
			b[n+j] = 0
		}
	}
	beta, err := q.solve(rows, cols)
	if err != nil {
		return nil, err
	}
	return &Linear{Intercept: beta[p], Coef: beta[:p]}, nil
}

// solve performs in-place Householder QR factorisation of the rows x cols
// slab (rows >= cols) and solves min ||a beta - b|| in the least-squares
// sense. After the loop, the strictly upper triangle of a holds R above
// its diagonal, rdiag holds R's diagonal, and the columns below the
// diagonal hold the Householder vectors (the LINPACK storage scheme).
// Each column is contiguous, so the norm chain, the dot products and the
// updates walk memory in order; their operations and summation order are
// those of the textbook row-indexed loops.
func (q *lsq) solve(rows, cols int) ([]float64, error) {
	a, b, rdiag := q.a, q.b, q.rdiag
	for k := 0; k < cols; k++ {
		ck := a[k*rows : (k+1)*rows]
		var nrm float64
		for i := k; i < rows; i++ {
			nrm = math.Hypot(nrm, ck[i])
		}
		if nrm != 0 {
			if ck[k] < 0 {
				nrm = -nrm
			}
			for i := k; i < rows; i++ {
				ck[i] /= nrm
			}
			ck[k] += 1
			for j := k + 1; j < cols; j++ {
				cj := a[j*rows : (j+1)*rows]
				var s float64
				for i := k; i < rows; i++ {
					s += ck[i] * cj[i]
				}
				s = -s / ck[k]
				for i := k; i < rows; i++ {
					cj[i] += s * ck[i]
				}
			}
		}
		rdiag[k] = -nrm
	}
	// Apply the reflections to b, i.e. compute Q^T b.
	for k := 0; k < cols; k++ {
		if rdiag[k] == 0 {
			continue // dependent column: no reflection was stored
		}
		ck := a[k*rows : (k+1)*rows]
		var s float64
		for i := k; i < rows; i++ {
			s += ck[i] * b[i]
		}
		s = -s / ck[k]
		for i := k; i < rows; i++ {
			b[i] += s * ck[i]
		}
	}
	// Back substitution on R beta = (Q^T b)[:cols].
	beta := make([]float64, cols)
	for k := cols - 1; k >= 0; k-- {
		if math.Abs(rdiag[k]) < 1e-12 {
			beta[k] = 0 // dependent column: pin to zero
			continue
		}
		s := b[k]
		for j := k + 1; j < cols; j++ {
			s -= a[j*rows+k] * beta[j]
		}
		beta[k] = s / rdiag[k]
	}
	for _, v := range beta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("ml: QR solution not finite")
		}
	}
	return beta, nil
}
