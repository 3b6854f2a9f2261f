package predict

import (
	"math"
	"testing"

	"repro/internal/model"
)

// smallHarvest collects a reduced but still learnable dataset quickly.
func smallHarvest(t *testing.T) *Harvest {
	t.Helper()
	opts := DefaultHarvestOpts(11)
	opts.Ticks = 700
	h, err := Collect(opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

var cachedBundle *Bundle

func trainedBundle(t *testing.T) *Bundle {
	t.Helper()
	if cachedBundle != nil {
		return cachedBundle
	}
	h := smallHarvest(t)
	b, err := Train(h, DefaultTrainConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	cachedBundle = b
	return b
}

func TestFeatureWidthsMatchNames(t *testing.T) {
	l := model.Load{RPS: 10, BytesInReq: 500, BytesOutRq: 2000, CPUTimeReq: 0.01}
	if len(VMCPUFeatures(l, 0)) != len(VMCPUFeatureNames()) {
		t.Fatal("VMCPU feature width mismatch")
	}
	if len(VMMemFeatures(l)) != len(VMMemFeatureNames()) {
		t.Fatal("VMMem feature width mismatch")
	}
	if len(VMNetFeatures(1, 2)) != len(VMNetFeatureNames()) {
		t.Fatal("VMNet feature width mismatch")
	}
	if len(PMCPUFeatures(1, 2, 3)) != len(PMCPUFeatureNames()) {
		t.Fatal("PMCPU feature width mismatch")
	}
	if len(VMRTFeatures(l, 100, 0, 0)) != len(VMRTFeatureNames()) {
		t.Fatal("VMRT feature width mismatch")
	}
	if len(VMSLAFeatures(l, 100, 0, 0)) != len(VMSLAFeatureNames()) {
		t.Fatal("VMSLA feature width mismatch")
	}
}

// TestSLAAndRTFeatureLayoutsMatch pins the invariant the batched proc
// predictor relies on: the VMSLA and VMRT models consume the identical
// feature row, so one prepared row may be fed to both. If either layout
// ever diverges, PredictSLAProcBatchBuf must build separate rows.
func TestSLAAndRTFeatureLayoutsMatch(t *testing.T) {
	l := model.Load{RPS: 37.5, BytesInReq: 500, BytesOutRq: 20000, CPUTimeReq: 0.0125}
	sla := VMSLAFeatures(l, 123.4, 0.25, 77)
	rt := VMRTFeatures(l, 123.4, 0.25, 77)
	if len(sla) != len(rt) || len(sla) != SLAFeatureDims {
		t.Fatalf("layout widths diverged: sla %d, rt %d, const %d", len(sla), len(rt), SLAFeatureDims)
	}
	for i := range sla {
		if sla[i] != rt[i] {
			t.Fatalf("feature %d diverged: sla %v != rt %v", i, sla[i], rt[i])
		}
	}
	if got := VMSLAFeaturesAppend(nil, l, 123.4, 0.25, 77); len(got) != len(sla) {
		t.Fatalf("append form width %d != %d", len(got), len(sla))
	}
}

// TestSLAProcComposeMatchesPredictSLA proves the two-stage split is a
// bit-identical refactor: PredictSLAProcBuf + ComposeSLA must reproduce
// PredictSLABuf exactly for every latency (including zero), and the batch
// form must reproduce the single-query form row by row.
func TestSLAProcComposeMatchesPredictSLA(t *testing.T) {
	b := trainedBundle(t)
	terms := model.DefaultSLATerms
	loads := []model.Load{
		{RPS: 5, BytesInReq: 500, BytesOutRq: 20000, CPUTimeReq: 0.01},
		{RPS: 60, BytesInReq: 500, BytesOutRq: 20000, CPUTimeReq: 0.01},
		{RPS: 200, BytesInReq: 300, BytesOutRq: 5000, CPUTimeReq: 0.03},
	}
	grants := []float64{10, 50, 200, 390}
	queues := []float64{0, 40, 5000}
	lats := []float64{0, 0.012, 0.08, 0.5}

	var s1, s2, s3 Scratch
	var rows []float64
	var qLoads []model.Load
	var qGrants, qDefs, qQueues []float64
	for _, l := range loads {
		for _, g := range grants {
			for _, q := range queues {
				memDef := 0.0
				if g < 100 {
					memDef = 0.3
				}
				rows = VMSLAFeaturesAppend(rows, l, g, memDef, q)
				qLoads = append(qLoads, l)
				qGrants, qDefs, qQueues = append(qGrants, g), append(qDefs, memDef), append(qQueues, q)
			}
		}
	}
	n := len(qLoads)
	slaProc := make([]float64, n)
	rtProc := make([]float64, n)
	b.PredictSLAProcBatchBuf(&s3, rows, n, slaProc, rtProc)
	for i := 0; i < n; i++ {
		sp, rp := b.PredictSLAProcBuf(&s1, qLoads[i], qGrants[i], qDefs[i], qQueues[i])
		if sp != slaProc[i] || rp != rtProc[i] {
			t.Fatalf("row %d: batch proc (%v,%v) != single proc (%v,%v)", i, slaProc[i], rtProc[i], sp, rp)
		}
		for _, lat := range lats {
			want := b.PredictSLABuf(&s2, terms, qLoads[i], qGrants[i], qDefs[i], qQueues[i], lat)
			if got := ComposeSLA(terms, sp, rp, lat); got != want {
				t.Fatalf("row %d lat %v: compose %v != PredictSLA %v", i, lat, got, want)
			}
		}
	}
}

func TestMemDeficitFrac(t *testing.T) {
	if MemDeficitFrac(512, 512) != 0 {
		t.Fatal("no deficit expected")
	}
	if MemDeficitFrac(600, 512) != 0 {
		t.Fatal("surplus should be zero deficit")
	}
	if got := MemDeficitFrac(256, 512); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("deficit = %v", got)
	}
	if MemDeficitFrac(0, 512) != 1 {
		t.Fatal("zero grant should be full deficit")
	}
	if MemDeficitFrac(100, 0) != 0 {
		t.Fatal("zero requirement should be zero deficit")
	}
}

func TestCollectValidation(t *testing.T) {
	if _, err := Collect(HarvestOpts{}); err == nil {
		t.Fatal("accepted zero ticks")
	}
}

func TestHarvestProducesData(t *testing.T) {
	h := smallHarvest(t)
	sizes := map[string]int{
		"VMCPU": h.VMCPU.Len(), "VMMem": h.VMMem.Len(), "VMIn": h.VMIn.Len(),
		"VMOut": h.VMOut.Len(), "PMCPU": h.PMCPU.Len(), "VMRT": h.VMRT.Len(),
		"VMSLA": h.VMSLA.Len(),
	}
	for name, n := range sizes {
		if n < 100 {
			t.Errorf("%s has only %d rows", name, n)
		}
	}
	// SLA targets must stay in [0, 1].
	for _, y := range h.VMSLA.Y {
		if y < 0 || y > 1 {
			t.Fatalf("SLA target out of range: %v", y)
		}
	}
	// RT targets bounded by the simulator cap.
	for _, y := range h.VMRT.Y {
		if y < 0 || y > 20.01 {
			t.Fatalf("RT target out of range: %v", y)
		}
	}
	if err := h.VMCPU.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainProducesTableIQuality(t *testing.T) {
	b := trainedBundle(t)
	if len(b.Reports) != 7 {
		t.Fatalf("reports = %d", len(b.Reports))
	}
	// The paper's correlations: CPU .854, MEM .994, IN .804, OUT .777,
	// PMCPU .909, RT .865, SLA .985. Require the same order of quality.
	mins := map[string]float64{
		"VM CPU": 0.75,
		"VM MEM": 0.95,
		"VM IN":  0.75,
		"VM OUT": 0.70,
		"PM CPU": 0.80,
		"VM RT":  0.60,
		"VM SLA": 0.78,
	}
	for _, rep := range b.Reports {
		min, ok := mins[rep.Name]
		if !ok {
			t.Fatalf("unexpected report %q", rep.Name)
		}
		if rep.Correlation < min {
			t.Errorf("%s correlation = %.3f, want >= %.2f", rep.Name, rep.Correlation, min)
		}
		if rep.NTrain == 0 || rep.NTest == 0 {
			t.Errorf("%s has empty split: %d/%d", rep.Name, rep.NTrain, rep.NTest)
		}
	}
}

func TestBundlePredictionsSane(t *testing.T) {
	b := trainedBundle(t)
	light := model.Load{RPS: 5, BytesInReq: 500, BytesOutRq: 20000, CPUTimeReq: 0.01}
	heavy := model.Load{RPS: 60, BytesInReq: 500, BytesOutRq: 20000, CPUTimeReq: 0.01}
	rl := b.PredictVMResources(light, 0)
	rh := b.PredictVMResources(heavy, 0)
	if !rl.NonNegative() || !rh.NonNegative() {
		t.Fatalf("negative predictions: %v %v", rl, rh)
	}
	if rh.CPUPct <= rl.CPUPct {
		t.Fatalf("CPU not increasing in load: %v vs %v", rl.CPUPct, rh.CPUPct)
	}
	if rh.MemMB <= rl.MemMB {
		t.Fatalf("memory not increasing in load: %v vs %v", rl.MemMB, rh.MemMB)
	}
	// SLA must clamp to [0,1] and degrade with starvation.
	well := b.PredictSLA(model.DefaultSLATerms, heavy, 200, 0, 0, 0)
	starved := b.PredictSLA(model.DefaultSLATerms, heavy, 10, 0.5, 5000, 0.39)
	if well < 0 || well > 1 || starved < 0 || starved > 1 {
		t.Fatalf("SLA out of range: %v %v", well, starved)
	}
	if starved >= well {
		t.Fatalf("starved SLA (%v) should be below well-fed (%v)", starved, well)
	}
	// PM CPU grows with guests.
	one := b.PredictPMCPU(1, 50, 20)
	three := b.PredictPMCPU(3, 150, 60)
	if three <= one {
		t.Fatalf("PM CPU not increasing: %v vs %v", one, three)
	}
}

func TestPredictRTIncreasesWithStarvation(t *testing.T) {
	b := trainedBundle(t)
	l := model.Load{RPS: 40, BytesInReq: 500, BytesOutRq: 20000, CPUTimeReq: 0.015}
	healthy := b.PredictRT(l, 200, 0, 0)
	starved := b.PredictRT(l, 15, 0.5, 3000)
	if healthy < 0 || starved < 0 {
		t.Fatal("negative RT prediction")
	}
	if starved <= healthy {
		t.Fatalf("starved RT (%v) should exceed healthy (%v)", starved, healthy)
	}
}

func TestTrainRejectsTinyDatasets(t *testing.T) {
	h := NewHarvest()
	// Only 5 rows each: must refuse.
	l := model.Load{RPS: 1}
	for i := 0; i < 5; i++ {
		h.VMCPU.Add(VMCPUFeatures(l, 0), 1)
		h.VMMem.Add(VMMemFeatures(l), 1)
		h.VMIn.Add(VMNetFeatures(1, 1), 1)
		h.VMOut.Add(VMNetFeatures(1, 1), 1)
		h.PMCPU.Add(PMCPUFeatures(1, 1, 1), 1)
		h.VMRT.Add(VMRTFeatures(l, 1, 0, 0), 1)
		h.VMSLA.Add(VMSLAFeatures(l, 1, 0, 0), 1)
	}
	if _, err := Train(h, DefaultTrainConfig(1)); err == nil {
		t.Fatal("accepted tiny datasets")
	}
}

func TestTrainConfigDefaults(t *testing.T) {
	h := smallHarvest(t)
	// Invalid fractions fall back to 0.66 rather than failing.
	b, err := Train(h, TrainConfig{Seed: 5, TrainFrac: 2, KNNK: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range b.Reports {
		frac := float64(rep.NTrain) / float64(rep.NTrain+rep.NTest)
		if math.Abs(frac-0.66) > 0.02 {
			t.Fatalf("%s train frac = %v", rep.Name, frac)
		}
	}
}
