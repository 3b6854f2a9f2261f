package predict

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/rng"
)

// Bundle is the trained set of the paper's seven predictors plus their
// validation reports (the rows of Table I).
type Bundle struct {
	VMCPU ml.Regressor
	VMMem ml.Regressor
	VMIn  ml.Regressor
	VMOut ml.Regressor
	PMCPU ml.Regressor
	VMRT  ml.Regressor
	VMSLA ml.Regressor
	// Reports holds one validation row per model, in Table I order.
	Reports []ml.Report
}

// TrainConfig controls bundle training.
type TrainConfig struct {
	Seed uint64
	// TrainFrac is the training share of each dataset (paper: 0.66).
	TrainFrac float64
	// Workers bounds training parallelism (<= 0 = GOMAXPROCS).
	Workers int
	// KNNK is the SLA model's neighbour count (paper: 4).
	KNNK int
}

// DefaultTrainConfig mirrors the paper's setup.
func DefaultTrainConfig(seed uint64) TrainConfig {
	return TrainConfig{Seed: seed, TrainFrac: 0.66, KNNK: 4}
}

// Train fits all seven models in parallel and validates each on its
// held-out split.
func Train(h *Harvest, cfg TrainConfig) (*Bundle, error) {
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		cfg.TrainFrac = 0.66
	}
	if cfg.KNNK <= 0 {
		cfg.KNNK = 4
	}
	type job struct {
		name   string
		method string
		unit   string
		data   *ml.Dataset
		train  func(*ml.Dataset) (ml.Regressor, error)
	}
	jobs := []job{
		{"VM CPU", "M5P (M=4)", "%CPU", h.VMCPU, func(d *ml.Dataset) (ml.Regressor, error) {
			return ml.TrainM5P(d, ml.DefaultM5PConfig(4))
		}},
		{"VM MEM", "Linear Reg.", "MB", h.VMMem, func(d *ml.Dataset) (ml.Regressor, error) {
			return ml.TrainLinear(d, 0)
		}},
		{"VM IN", "M5P (M=2)", "KB", h.VMIn, func(d *ml.Dataset) (ml.Regressor, error) {
			return ml.TrainM5P(d, ml.DefaultM5PConfig(2))
		}},
		{"VM OUT", "M5P (M=2)", "KB", h.VMOut, func(d *ml.Dataset) (ml.Regressor, error) {
			return ml.TrainM5P(d, ml.DefaultM5PConfig(2))
		}},
		{"PM CPU", "M5P (M=4)", "%CPU", h.PMCPU, func(d *ml.Dataset) (ml.Regressor, error) {
			return ml.TrainM5P(d, ml.DefaultM5PConfig(4))
		}},
		{"VM RT", "M5P (M=4)", "s", h.VMRT, func(d *ml.Dataset) (ml.Regressor, error) {
			return ml.TrainM5P(d, ml.DefaultM5PConfig(4))
		}},
		{"VM SLA", fmt.Sprintf("K-NN (K=%d)", cfg.KNNK), "", h.VMSLA, func(d *ml.Dataset) (ml.Regressor, error) {
			return ml.TrainKNN(d, ml.DefaultKNNConfig(cfg.KNNK))
		}},
	}
	type result struct {
		reg    ml.Regressor
		report ml.Report
		err    error
	}
	results := par.MapIdx(jobs, cfg.Workers, func(i int, j job) result {
		if j.data.Len() < 10 {
			return result{err: fmt.Errorf("predict: %s has only %d rows", j.name, j.data.Len())}
		}
		stream := rng.NewNamed(cfg.Seed, "predict/split/"+j.name)
		train, test := j.data.Split(cfg.TrainFrac, stream)
		reg, err := j.train(train)
		if err != nil {
			return result{err: fmt.Errorf("predict: training %s: %w", j.name, err)}
		}
		rep := ml.Evaluate(reg, test)
		rep.Name = j.name
		rep.Method = j.method
		rep.Unit = j.unit
		rep.NTrain = train.Len()
		return result{reg: reg, report: rep}
	})
	b := &Bundle{}
	for i, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		b.Reports = append(b.Reports, r.report)
		switch i {
		case 0:
			b.VMCPU = r.reg
		case 1:
			b.VMMem = r.reg
		case 2:
			b.VMIn = r.reg
		case 3:
			b.VMOut = r.reg
		case 4:
			b.PMCPU = r.reg
		case 5:
			b.VMRT = r.reg
		case 6:
			b.VMSLA = r.reg
		}
	}
	return b, nil
}

// Scratch carries one goroutine's reusable inference buffers (the feature
// row and the ML-level scratch) through repeated bundle predictions. The
// zero value is ready; a Scratch must not be shared between goroutines.
type Scratch struct {
	feat []float64
	buf  ml.Buf
}

// KNNWork returns the k-NN search work done through s so far.
func (s *Scratch) KNNWork() ml.KNNWork { return s.buf.Work }

// PredictVMResources anticipates the resources a VM will need to serve the
// given load — the replacement for reading stale monitors (Section IV-B).
func (b *Bundle) PredictVMResources(load model.Load, queueLen float64) model.Resources {
	var s Scratch
	return b.PredictVMResourcesBuf(&s, load, queueLen)
}

// PredictVMResourcesBuf is PredictVMResources over caller scratch:
// allocation-free once s has warmed up, bit-identical results.
func (b *Bundle) PredictVMResourcesBuf(s *Scratch, load model.Load, queueLen float64) model.Resources {
	s.feat = VMCPUFeaturesInto(s.feat, load, queueLen)
	cpu := ml.PredictBuffered(b.VMCPU, s.feat, &s.buf)
	s.feat = VMMemFeaturesInto(s.feat, load)
	mem := ml.PredictBuffered(b.VMMem, s.feat, &s.buf)
	s.feat = VMNetFeaturesInto(s.feat, load.RPS, load.BytesInReq)
	inKB := ml.PredictBuffered(b.VMIn, s.feat, &s.buf)
	s.feat = VMNetFeaturesInto(s.feat, load.RPS, load.BytesOutRq)
	outKB := ml.PredictBuffered(b.VMOut, s.feat, &s.buf)
	bw := (inKB + outKB) * 1024 * 8 / 1e6 // KB/s -> Mbps
	r := model.Resources{CPUPct: cpu, MemMB: mem, BWMbps: bw}
	return r.Max(model.Resources{}) // clamp regression undershoot
}

// PredictVMCPUBuf predicts the raw "Predict VM CPU" model over caller
// scratch, unclamped — callers bound the result to their grant.
func (b *Bundle) PredictVMCPUBuf(s *Scratch, load model.Load, queueLen float64) float64 {
	s.feat = VMCPUFeaturesInto(s.feat, load, queueLen)
	return ml.PredictBuffered(b.VMCPU, s.feat, &s.buf)
}

// PredictPMCPU anticipates a host's total CPU (including virtualisation
// overhead) for a tentative guest population. The prediction is floored at
// the plain guest sum: a host can never burn less than its guests, so any
// regression undershoot on off-manifold queries is physically impossible
// and clamped away.
func (b *Bundle) PredictPMCPU(nGuests int, sumVMCPUPct, sumRPS float64) float64 {
	var s Scratch
	return b.PredictPMCPUBuf(&s, nGuests, sumVMCPUPct, sumRPS)
}

// PredictPMCPUBuf is PredictPMCPU over caller scratch.
func (b *Bundle) PredictPMCPUBuf(s *Scratch, nGuests int, sumVMCPUPct, sumRPS float64) float64 {
	s.feat = PMCPUFeaturesInto(s.feat, nGuests, sumVMCPUPct, sumRPS)
	v := ml.PredictBuffered(b.PMCPU, s.feat, &s.buf)
	if v < sumVMCPUPct {
		v = sumVMCPUPct
	}
	if v < 0 {
		return 0
	}
	return v
}

// PredictRT anticipates the processing response time of a VM under a
// tentative CPU grant.
func (b *Bundle) PredictRT(load model.Load, grantedCPUPct, memDeficitFrac, queueLen float64) float64 {
	var s Scratch
	return b.PredictRTBuf(&s, load, grantedCPUPct, memDeficitFrac, queueLen)
}

// PredictRTBuf is PredictRT over caller scratch.
func (b *Bundle) PredictRTBuf(s *Scratch, load model.Load, grantedCPUPct, memDeficitFrac, queueLen float64) float64 {
	s.feat = VMRTFeaturesInto(s.feat, load, grantedCPUPct, memDeficitFrac, queueLen)
	v := ml.PredictBuffered(b.VMRT, s.feat, &s.buf)
	if v < 0 {
		return 0
	}
	return v
}

// PredictSLA anticipates the SLA fulfilment of a VM under a tentative
// grant and client latency, clamped to [0, 1]. The k-NN supplies the
// processing SLA; the transport latency is composed in analytically
// (Figure 3, constraints 6.2-6.3 then 7) by shifting the *predicted
// processing response time* through the contract curve:
//
//	SLA = slaProc * F(rtProc + latency) / F(rtProc)
//
// so a fast service absorbs a small hop for free (rt stays under RT0)
// while a strained one is hurt in proportion.
func (b *Bundle) PredictSLA(terms model.SLATerms, load model.Load, grantedCPUPct, memDeficitFrac, queueLen, latencySec float64) float64 {
	var s Scratch
	return b.PredictSLABuf(&s, terms, load, grantedCPUPct, memDeficitFrac, queueLen, latencySec)
}

// PredictSLABuf is PredictSLA over caller scratch. It is the
// one-query composition of PredictSLAProcBuf and ComposeSLA, with the RT
// prediction skipped when the latency shift cannot change the answer
// (zero latency or zero processing SLA).
func (b *Bundle) PredictSLABuf(s *Scratch, terms model.SLATerms, load model.Load, grantedCPUPct, memDeficitFrac, queueLen, latencySec float64) float64 {
	s.feat = VMSLAFeaturesInto(s.feat, load, grantedCPUPct, memDeficitFrac, queueLen)
	v := ml.PredictBuffered(b.VMSLA, s.feat, &s.buf)
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	if latencySec <= 0 || v == 0 {
		return v
	}
	rtProc := b.PredictRTBuf(s, load, grantedCPUPct, memDeficitFrac, queueLen)
	return ComposeSLA(terms, v, rtProc, latencySec)
}

// PredictSLAProcBuf predicts the latency-independent processing stage of
// the SLA model: the k-NN processing SLA clamped to [0, 1] plus the
// predicted processing response time the latency composition needs.
// rtProc is 0 whenever slaProc is 0 (ComposeSLA short-circuits there, so
// the RT model is never consulted — matching PredictSLABuf's laziness).
// ComposeSLA(terms, slaProc, rtProc, lat) then equals
// PredictSLABuf(..., lat) bit for bit: this split is what lets a
// scheduling-round table fill run the expensive models once per VM and
// derive every candidate DC's SLA analytically.
func (b *Bundle) PredictSLAProcBuf(s *Scratch, load model.Load, grantedCPUPct, memDeficitFrac, queueLen float64) (slaProc, rtProc float64) {
	s.feat = VMSLAFeaturesInto(s.feat, load, grantedCPUPct, memDeficitFrac, queueLen)
	v := ml.PredictBuffered(b.VMSLA, s.feat, &s.buf)
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	if v == 0 {
		return 0, 0
	}
	return v, b.PredictRTBuf(s, load, grantedCPUPct, memDeficitFrac, queueLen)
}

// PredictSLAProcBatchBuf is PredictSLAProcBuf over n prepared feature
// rows, stored row-major in rows (len(rows) == n*SLAFeatureDims; build
// them with VMSLAFeaturesAppend). It fills slaProc[:n] and rtProc[:n].
// The SLA and RT models share the row layout, so each row is standardized
// and queried as-is by both; per-row results are bit-identical to
// PredictSLAProcBuf. The k-NN runs through its batch path — one shared
// scratch, one traversal stack — which is where a (VM, DC) table fill's
// query volume gets amortized.
func (b *Bundle) PredictSLAProcBatchBuf(s *Scratch, rows []float64, n int, slaProc, rtProc []float64) {
	if n <= 0 {
		return
	}
	ml.PredictBatchBuffered(b.VMSLA, rows, n, slaProc, &s.buf)
	d := len(rows) / n
	for i := 0; i < n; i++ {
		v := slaProc[i]
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		slaProc[i] = v
		if v == 0 {
			rtProc[i] = 0
			continue
		}
		rt := ml.PredictBuffered(b.VMRT, rows[i*d:(i+1)*d], &s.buf)
		if rt < 0 {
			rt = 0
		}
		rtProc[i] = rt
	}
}

// ComposeSLA folds client latency into a processing-stage prediction —
// the analytic tail of PredictSLA (Figure 3, constraints 6.2-6.3 then 7):
// the predicted processing response time is shifted through the contract
// curve and the processing SLA scaled by the fulfilment ratio. It must
// stay bit-identical to the tail of PredictSLABuf; in particular the
// ratio is computed before the multiply, matching the original v *= s/b.
func ComposeSLA(terms model.SLATerms, slaProc, rtProc, latencySec float64) float64 {
	if latencySec <= 0 || slaProc == 0 {
		return slaProc
	}
	base := terms.Fulfilment(rtProc)
	if base <= 1e-9 {
		return 0
	}
	shifted := terms.Fulfilment(rtProc + latencySec)
	v := slaProc * (shifted / base)
	if v > 1 {
		v = 1
	}
	return v
}
