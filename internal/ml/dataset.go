// Package ml is the from-scratch learning library behind the paper's
// predictors: M5P model trees (regression trees with linear models at the
// leaves), ordinary/ridge linear regression solved by QR decomposition, and
// k-nearest-neighbours regression with an optional kd-tree index.
//
// The paper trains its models in WEKA (M5P with M=4 or M=2, LinearRegression,
// IBk with K=4); this package reimplements those algorithms on the standard
// library only, with the same hyper-parameters exposed.
package ml

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Dataset is a dense supervised-regression dataset: one row of features per
// observation and one numeric target.
type Dataset struct {
	// Names labels the feature columns (optional but keeps models debuggable).
	Names []string
	// X holds the feature rows; every row must have the same width.
	X [][]float64
	// Y holds the regression targets, len(Y) == len(X).
	Y []float64
}

// NewDataset builds an empty dataset with the given feature names.
func NewDataset(names []string) *Dataset {
	return &Dataset{Names: append([]string(nil), names...)}
}

// Add appends one observation. It panics if the row width differs from the
// feature-name count when names are present; datasets are built by code,
// not user input, so a width mismatch is a programming error.
func (d *Dataset) Add(x []float64, y float64) {
	if len(d.Names) > 0 && len(x) != len(d.Names) {
		panic(fmt.Sprintf("ml: row width %d != %d features", len(x), len(d.Names)))
	}
	d.X = append(d.X, append([]float64(nil), x...))
	d.Y = append(d.Y, y)
}

// Len returns the number of observations.
func (d *Dataset) Len() int { return len(d.X) }

// Width returns the number of features (0 for an empty dataset).
func (d *Dataset) Width() int {
	if len(d.X) > 0 {
		return len(d.X[0])
	}
	return len(d.Names)
}

// Validate checks rectangularity and matching target length.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d rows but %d targets", len(d.X), len(d.Y))
	}
	w := d.Width()
	for i, row := range d.X {
		if len(row) != w {
			return fmt.Errorf("ml: row %d has width %d, want %d", i, len(row), w)
		}
	}
	return nil
}

// Subset returns a view-copy of the selected row indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Names: d.Names, X: make([][]float64, 0, len(idx)), Y: make([]float64, 0, len(idx))}
	for _, i := range idx {
		out.X = append(out.X, d.X[i])
		out.Y = append(out.Y, d.Y[i])
	}
	return out
}

// Split partitions the dataset into train and test parts. frac is the
// training share (the paper uses 66%/34%); rows are shuffled with the given
// stream, or kept in order when stream is nil.
func (d *Dataset) Split(frac float64, stream *rng.Stream) (train, test *Dataset) {
	n := d.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if stream != nil {
		stream.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	cut := int(frac * float64(n))
	if cut < 0 {
		cut = 0
	}
	if cut > n {
		cut = n
	}
	return d.Subset(idx[:cut]), d.Subset(idx[cut:])
}

// YRange returns the min and max target values, the "Data Range" column of
// Table I.
func (d *Dataset) YRange() (lo, hi float64) {
	if len(d.Y) == 0 {
		return 0, 0
	}
	lo, hi = d.Y[0], d.Y[0]
	for _, y := range d.Y[1:] {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	return lo, hi
}

// Standardizer z-scores features using statistics frozen at fit time, so
// train and test data share one transformation.
type Standardizer struct {
	Mean []float64
	Std  []float64
}

// FitStandardizer computes per-column means and standard deviations.
// Constant columns get Std 1 so they map to zero rather than exploding.
func FitStandardizer(d *Dataset) *Standardizer {
	w := d.Width()
	s := &Standardizer{Mean: make([]float64, w), Std: make([]float64, w)}
	n := float64(d.Len())
	if n == 0 {
		for j := range s.Std {
			s.Std[j] = 1
		}
		return s
	}
	for _, row := range d.X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range d.X {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Apply transforms one row into z-scores (allocates a new slice).
func (s *Standardizer) Apply(x []float64) []float64 {
	return s.ApplyInto(nil, x)
}

// ApplyInto transforms one row into z-scores, reusing dst's capacity; it
// returns the (possibly grown) destination. dst may be nil.
func (s *Standardizer) ApplyInto(dst, x []float64) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for j, v := range x {
		dst[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return dst
}

// Regressor is anything that maps a feature row to a numeric prediction.
type Regressor interface {
	Predict(x []float64) float64
}
