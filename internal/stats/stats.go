// Package stats implements the descriptive statistics used to validate the
// learned models (Table I of the paper: correlation, mean absolute error,
// error standard deviation, value ranges) and to summarise experiment
// series.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Correlation returns the Pearson correlation coefficient between xs and
// ys, the headline quality figure of Table I. It returns 0 when either
// series is constant or the lengths differ.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MAE returns the mean absolute error between predictions and truth.
func MAE(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred))
}

// ErrStdDev returns the standard deviation of the signed errors
// pred[i]-truth[i], the "Err-StDev" column of Table I.
func ErrStdDev(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0
	}
	errs := make([]float64, len(pred))
	for i := range pred {
		errs[i] = pred[i] - truth[i]
	}
	return StdDev(errs)
}

// Welford accumulates count, mean and variance in one pass with constant
// memory. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds a new observation into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation seen (0 if none).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation seen (0 if none).
func (w *Welford) Max() float64 { return w.max }

func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		w.n, w.Mean(), w.StdDev(), w.min, w.max)
}
