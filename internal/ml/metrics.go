package ml

import (
	"fmt"

	"repro/internal/stats"
)

// Report summarises a model's validation quality — one row of the paper's
// Table I.
type Report struct {
	Name        string  // predicted element, e.g. "VM CPU"
	Method      string  // learning method description, e.g. "M5P (M=4)"
	Correlation float64 // Pearson correlation predicted vs true
	MAE         float64 // mean absolute error
	ErrStdDev   float64 // standard deviation of signed errors
	NTrain      int
	NTest       int
	RangeLo     float64
	RangeHi     float64
	Unit        string
}

// Evaluate scores a fitted model against a held-out dataset.
func Evaluate(m Regressor, test *Dataset) Report {
	pred := make([]float64, test.Len())
	for i, row := range test.X {
		pred[i] = m.Predict(row)
	}
	lo, hi := test.YRange()
	return Report{
		Correlation: stats.Correlation(pred, test.Y),
		MAE:         stats.MAE(pred, test.Y),
		ErrStdDev:   stats.ErrStdDev(pred, test.Y),
		NTest:       test.Len(),
		RangeLo:     lo,
		RangeHi:     hi,
	}
}

// String renders the report in Table I's column order.
func (r Report) String() string {
	return fmt.Sprintf("%-14s %-14s corr=%.3f mae=%.4g%s errsd=%.4g%s train/val=%d/%d range=[%.4g,%.4g]",
		r.Name, r.Method, r.Correlation, r.MAE, r.Unit, r.ErrStdDev, r.Unit,
		r.NTrain, r.NTest, r.RangeLo, r.RangeHi)
}
