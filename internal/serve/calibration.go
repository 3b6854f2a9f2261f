package serve

import (
	"math"

	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/stats"
)

// minMAPEDenom floors the MAPE denominator: observed SLA sits in [0, 1]
// and regularly touches 0 under overload, where a literal percentage
// error diverges. Errors against near-zero observations are measured
// against this floor instead.
const minMAPEDenom = 0.05

// Calibration is the accountability window of the SLA predictor: every
// tick the engine loop records, per served VM, the model's prediction
// inputs next to the fulfilment the simulated gateway then measured.
// Report summarises the last N pairs as MAPE and Pearson correlation —
// the same two numbers the paper's Table I uses to argue the models are
// trustworthy, now computed continuously against live traffic.
//
// Predictions are made on read: Record keeps each pair's inputs,
// including the immutable model set that was current at the time, and
// Report predicts only the pairs recorded since the previous Report. A
// pair's prediction is therefore the same pure function of the same
// inputs whenever it runs, while a journal restore that replays
// thousands of ticks before its first Report predicts at most one
// window's worth of pairs.
//
// Owned by the engine-loop goroutine; queries read it through the
// published snapshot, never directly.
type Calibration struct {
	window  int
	in      []calInput
	pred    []float64
	obs     []float64
	next    int // ring cursor
	total   int // lifetime pairs recorded
	scratch predict.Scratch
}

// calInput is one pair's prediction inputs: the model set and the SLA
// model's features.
type calInput struct {
	// bundle is nil once the pair is predicted, which marks it done and
	// keeps the window from pinning retired model sets.
	bundle         *predict.Bundle
	load           model.Load
	grantedCPUPct  float64
	memDeficitFrac float64
	queueLen       float64
}

// NewCalibration builds a sliding window of n pairs (n <= 0 = 512).
func NewCalibration(n int) *Calibration {
	if n <= 0 {
		n = 512
	}
	return &Calibration{
		window: n,
		in:     make([]calInput, 0, n),
		pred:   make([]float64, 0, n),
		obs:    make([]float64, 0, n),
	}
}

// Record appends one pair, evicting the oldest once the window is full:
// b's processing-SLA prediction for the given load, grant, memory
// deficit and queue length, against the observed fulfilment obs. b must
// be non-nil and must not change afterwards (predict.Online.Current hands
// out such bundles).
func (c *Calibration) Record(b *predict.Bundle, load model.Load, grantedCPUPct, memDeficitFrac, queueLen, obs float64) {
	c.total++
	in := calInput{bundle: b, load: load, grantedCPUPct: grantedCPUPct, memDeficitFrac: memDeficitFrac, queueLen: queueLen}
	if len(c.obs) < c.window {
		c.in = append(c.in, in)
		c.pred = append(c.pred, 0)
		c.obs = append(c.obs, obs)
		return
	}
	c.in[c.next] = in
	c.obs[c.next] = obs
	c.next = (c.next + 1) % c.window
}

// CalibrationReport is the point-in-time calibration summary.
type CalibrationReport struct {
	// Pairs is how many prediction/observation pairs the window holds;
	// Total counts every pair ever recorded.
	Pairs int `json:"pairs"`
	Total int `json:"total"`
	// MAPE is the mean absolute percentage error of predicted vs observed
	// SLA over the window (denominator floored at 0.05).
	MAPE float64 `json:"mape"`
	// PearsonR is the linear correlation of predicted vs observed SLA
	// (0 with fewer than two pairs or zero variance).
	PearsonR float64 `json:"pearson_r"`
}

// Report predicts the pairs recorded since the last Report, then
// summarises the current window.
func (c *Calibration) Report() CalibrationReport {
	for i := range c.in {
		in := &c.in[i]
		if in.bundle == nil {
			continue
		}
		c.pred[i], _ = in.bundle.PredictSLAProcBuf(&c.scratch, in.load, in.grantedCPUPct, in.memDeficitFrac, in.queueLen)
		in.bundle = nil
	}

	n := len(c.obs)
	r := CalibrationReport{Pairs: n, Total: c.total}
	if n == 0 {
		return r
	}
	var sum float64
	for i := range c.pred {
		den := math.Abs(c.obs[i])
		if den < minMAPEDenom {
			den = minMAPEDenom
		}
		sum += math.Abs(c.pred[i]-c.obs[i]) / den
	}
	r.MAPE = sum / float64(n)
	r.PearsonR = stats.Correlation(c.pred, c.obs)
	return r
}
