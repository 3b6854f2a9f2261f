// Package predict implements the paper's seven learned models (Table I):
//
//	Predict VM CPU   — M5P (M=4)
//	Predict VM MEM   — Linear Regression
//	Predict VM IN    — M5P (M=2)
//	Predict VM OUT   — M5P (M=2)
//	Predict PM CPU   — M5P (M=4)
//	Predict VM RT    — M5P (M=4)
//	Predict VM SLA   — k-NN (K=4)
//
// It owns the feature definitions (so harvesting and inference can never
// drift apart), harvests training data from monitored simulator runs under
// randomised placements, trains the bundle in parallel, and exposes the
// prediction helpers the ML-enhanced scheduler consumes.
package predict

import "repro/internal/model"

// Feature vectors. All units are chosen to keep magnitudes within a few
// orders of magnitude of each other: KB for byte counts, ms for times.

// VMCPUFeaturesInto maps the monitored load characteristics of one VM to the
// feature row of the "Predict VM CPU" model.
// The row is written into dst's reused capacity (dst may be nil).
func VMCPUFeaturesInto(dst []float64, l model.Load, queueLen float64) []float64 {
	return append(dst[:0],
		l.RPS,
		l.BytesInReq/1024,
		l.BytesOutRq/1024,
		l.CPUTimeReq*1000,
		queueLen,
	)
}

// VMCPUFeatureNames labels the columns of VMCPUFeaturesInto.
func VMCPUFeatureNames() []string {
	return []string{"rps", "bytesInKB", "bytesOutKB", "cpuTimeMs", "queue"}
}

// VMMemFeaturesInto maps load to the memory model's features. The paper found
// memory to be essentially linear in load, hence the single regressor.
// The row is written into dst's reused capacity (dst may be nil).
func VMMemFeaturesInto(dst []float64, l model.Load) []float64 {
	return append(dst[:0], l.RPS)
}

// VMMemFeatureNames labels the columns of VMMemFeaturesInto.
func VMMemFeatureNames() []string { return []string{"rps"} }

// VMNetFeaturesInto maps load to the network I/O models' features (shared by
// the IN and OUT models, with the relevant byte size).
// The row is written into dst's reused capacity (dst may be nil).
func VMNetFeaturesInto(dst []float64, rps, bytesPerReq float64) []float64 {
	return append(dst[:0], rps, bytesPerReq/1024)
}

// VMNetFeatureNames labels the columns of VMNetFeaturesInto.
func VMNetFeatureNames() []string { return []string{"rps", "bytesKB"} }

// PMCPUFeaturesInto maps a host's guest population to the "Predict PM CPU"
// features: the paper learns PM CPU as a function of "the number of VM's
// and their metrics" because the total exceeds the plain sum.
// The row is written into dst's reused capacity (dst may be nil).
func PMCPUFeaturesInto(dst []float64, nGuests int, sumVMCPUPct, sumRPS float64) []float64 {
	return append(dst[:0], float64(nGuests), sumVMCPUPct, sumRPS)
}

// PMCPUFeatureNames labels the columns of PMCPUFeaturesInto.
func PMCPUFeatureNames() []string { return []string{"guests", "sumVmCpu", "sumRps"} }

// VMRTFeaturesInto maps (load, tentative grant) to the response-time model's
// features.
// The row is written into dst's reused capacity (dst may be nil).
func VMRTFeaturesInto(dst []float64, l model.Load, grantedCPUPct, memDeficitFrac, queueLen float64) []float64 {
	return append(dst[:0],
		l.RPS,
		l.CPUTimeReq*1000,
		grantedCPUPct,
		memDeficitFrac,
		queueLen,
	)
}

// VMRTFeatureNames labels the columns of VMRTFeaturesInto.
func VMRTFeatureNames() []string {
	return []string{"rps", "cpuTimeMs", "grantCpu", "memDeficit", "queue"}
}

// VMSLAFeaturesInto maps (load, tentative grant) to the SLA model's features.
// Predicting SLA directly (rather than via RT) is the paper's preferred
// design: the bounded [0,1] target is robust to outliers. The model learns
// the *processing* SLA; the transport component is deterministic
// (constraints 6.2-6.3 of Figure 3) and applied analytically on top.
// The row is written into dst's reused capacity (dst may be nil).
func VMSLAFeaturesInto(dst []float64, l model.Load, grantedCPUPct, memDeficitFrac, queueLen float64) []float64 {
	return VMSLAFeaturesAppend(dst[:0], l, grantedCPUPct, memDeficitFrac, queueLen)
}

// VMSLAFeaturesAppend appends the VMSLA feature row to dst without
// truncating it — the batch-matrix building form of VMSLAFeaturesInto.
// The row layout is identical to VMRTFeaturesInto (asserted by
// TestSLAAndRTFeatureLayoutsMatch), which is what lets one prepared row
// serve both the SLA and the RT model in the batched proc predictor.
func VMSLAFeaturesAppend(dst []float64, l model.Load, grantedCPUPct, memDeficitFrac, queueLen float64) []float64 {
	return append(dst,
		l.RPS,
		l.CPUTimeReq*1000,
		grantedCPUPct,
		memDeficitFrac,
		queueLen,
	)
}

// SLAFeatureDims is the width of one VMSLA/VMRT feature row.
const SLAFeatureDims = 5

// VMSLAFeatureNames labels the columns of VMSLAFeaturesInto.
func VMSLAFeatureNames() []string {
	return []string{"rps", "cpuTimeMs", "grantCpu", "memDeficit", "queue"}
}

// MemDeficitFrac returns the relative memory shortfall of a tentative
// grant, a key driver of RT degradation (swapping).
func MemDeficitFrac(grantedMB, requiredMB float64) float64 {
	if requiredMB <= 0 || grantedMB >= requiredMB {
		return 0
	}
	if grantedMB <= 0 {
		return 1
	}
	return (requiredMB - grantedMB) / requiredMB
}
