package sched

import (
	"math"

	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/predict"
)

// Scratch carries one goroutine's reusable inference buffers through
// estimator calls, making the ML prediction path allocation-free. The zero
// value is ready; a Scratch must not be shared between goroutines. Each
// Round owns one, which its table fill and candidate scoring run on.
type Scratch struct {
	// Predict is the bundle-level scratch the ML estimator forwards.
	Predict predict.Scratch

	// Congested-grant memo: when a VM is scored against many hosts whose
	// remaining capacity clamps its grant, the clamped (grantCPU, memDef,
	// DC) tuples repeat across hosts with equal availability, and
	// estimators are pure — so the answers are memoized here per VM. The
	// cache is scoped to one (Reset generation, VM) and holds exact-match
	// float keys, so hits return bit-identical values. For proc-split
	// estimators the entry stores the latency-independent processing pair
	// under dc == -1 and the caller composes latency per host, so one
	// entry serves every DC.
	cacheGen uint64
	cacheVM  int
	cacheN   int
	cache    [profitCacheSize]profitCacheEntry

	// Batched-fill scratch: the grant vector, the processing-stage outputs
	// and (inside the estimator) the feature matrix of one round's fill.
	grants  []float64
	slaProc []float64
	rtProc  []float64
	rows    []float64

	// Marginal-energy memo: while one VM is scored against every host,
	// hosts in the same tentative state (all still-empty hosts, notably)
	// pose the identical PM-CPU query, so the marginal facility watts are
	// memoized per exact host-state key in a direct-mapped table. Slots
	// are validated by an epoch stamp (bumped when the scored VM changes)
	// instead of being cleared, and a last-key fast path serves the long
	// runs of identically-stated hosts without hashing. PMCPU is pure and
	// the keys are exact floats, so hits are bit-identical; collisions
	// merely recompute.
	eGen   uint64
	eVM    int
	eEpoch uint64
	eLast  energyKey
	eLastW float64
	eKeys  [energyCacheSize]energyKey
	eWatts [energyCacheSize]float64
	// Cumulative memo lookups answered from the memo and lookups that
	// ran the PM-CPU model.
	eHits, eMisses int64
}

// energyCacheSize is the direct-mapped marginal-energy table size (power
// of two; sized past the distinct tentative host states one VM's scan can
// meet on the largest preset).
const energyCacheSize = 512

type energyKey struct {
	sumCPU, sumRPS, cap, vmCPU float64
	guests                     int
	epoch                      uint64
}

// marginalWatts returns the marginal facility draw of adding VM i (using
// vmCPU of its tentative grant) to host j, memoized on the host's exact
// tentative state. The baseline draw is itself a pure function of that
// state, so the whole difference memoizes.
func (s *Scratch) marginalWatts(r *Round, i, j int, vmCPU float64) float64 {
	if s.eGen != r.gen || s.eVM != i {
		s.eGen, s.eVM = r.gen, i
		s.eEpoch++
	}
	guests, sumCPU, sumRPS, cap := r.hGuests[j], r.hSumCPU[j], r.hSumRPS[j], r.hCapCPU[j]
	if l := &s.eLast; l.epoch == s.eEpoch && l.guests == guests && l.sumCPU == sumCPU &&
		l.sumRPS == sumRPS && l.cap == cap && l.vmCPU == vmCPU {
		s.eHits++
		return s.eLastW
	}
	h := math.Float64bits(sumCPU)
	h ^= math.Float64bits(sumRPS) * 0x9E3779B97F4A7C15
	h ^= math.Float64bits(cap) + uint64(guests)
	h = (h ^ h>>29) * 0xBF58476D1CE4E5B9
	slot := (h ^ h>>32) & (energyCacheSize - 1)
	e := &s.eKeys[slot]
	if e.epoch == s.eEpoch && e.guests == guests && e.sumCPU == sumCPU &&
		e.sumRPS == sumRPS && e.cap == cap && e.vmCPU == vmCPU {
		s.eLast, s.eLastW = *e, s.eWatts[slot]
		s.eHits++
		return s.eWatts[slot]
	}
	s.eMisses++
	newPM := r.est.PMCPU(guests+1, sumCPU+vmCPU, sumRPS+r.vms[i].Total.RPS, s)
	newPM = clampF(newPM, 0, cap)
	w := power.FacilityWatts(newPM) - r.hWattsBefore[j]
	*e = energyKey{sumCPU: sumCPU, sumRPS: sumRPS, cap: cap, vmCPU: vmCPU, guests: guests, epoch: s.eEpoch}
	s.eLast, s.eLastW = *e, w
	s.eWatts[slot] = w
	return w
}

// profitCacheSize bounds the per-VM congested-grant memo; one VM rarely
// sees more distinct clamped grants than hosts-with-distinct-availability
// per DC.
const profitCacheSize = 16

type profitCacheEntry struct {
	grantCPU, memDef float64
	dc               int
	// sla holds the composed fulfilment for plain estimators (dc in the
	// key), or the latency-free processing fulfilment for proc-split
	// estimators (dc == -1, rt carries the processing RT).
	sla, rt, vmCPU float64
	hasSLA, hasCPU bool
}

// profitEntry returns the memo slot for the exact key, resetting the cache
// when the Reset generation or VM changed. A full cache recycles its last
// slot (correctness is unaffected; only reuse is lost).
func (s *Scratch) profitEntry(r *Round, i int, grantCPU, memDef float64, dc int) *profitCacheEntry {
	if s.cacheGen != r.gen || s.cacheVM != i {
		s.cacheGen, s.cacheVM = r.gen, i
		s.cacheN = 0
	}
	for k := 0; k < s.cacheN; k++ {
		e := &s.cache[k]
		if e.grantCPU == grantCPU && e.memDef == memDef && e.dc == dc {
			return e
		}
	}
	if s.cacheN < profitCacheSize {
		s.cacheN++
	}
	e := &s.cache[s.cacheN-1]
	*e = profitCacheEntry{grantCPU: grantCPU, memDef: memDef, dc: dc}
	return e
}

// Estimator supplies the uncertain quantities of the mathematical program:
// what a VM will need, what SLA a tentative grant will yield, and what a
// host's aggregate CPU will be. The paper's thesis is precisely that
// learned estimators beat monitored windows here.
//
// Every method takes the caller's scratch; implementations must be safe
// for concurrent calls with distinct scratches (shared state read-only),
// must tolerate a nil scratch by paying a local allocation, and must be
// pure functions of their arguments (the scratch carries buffers, never
// meaning) — purity is what lets the profit evaluator memoize answers.
type Estimator interface {
	// Required returns the resources the VM needs next round.
	Required(vm *VMInfo, s *Scratch) model.Resources
	// SLA predicts fulfilment under a tentative grant; ok=false means the
	// estimator has no QoS model and the caller should fall back to the
	// fit-based heuristic.
	SLA(vm *VMInfo, grantCPUPct, memDeficitFrac, latencySec float64, s *Scratch) (float64, bool)
	// VMCPUUsage estimates the CPU a VM will actually burn under the grant
	// (for host power aggregation).
	VMCPUUsage(vm *VMInfo, grantCPUPct float64, s *Scratch) float64
	// PMCPU estimates a host's aggregate CPU for a tentative population.
	PMCPU(nGuests int, sumVMCPUPct, sumRPS float64, s *Scratch) float64
	// Name identifies the estimator in reports.
	Name() string
}

// SLAProcEstimator is an Estimator whose SLA model factors into a
// latency-independent *processing* stage plus an analytic latency
// composition. The factoring is the central table-fill lever: the
// processing stage depends only on (VM, grant), not on the DC, so one
// query serves every DC row of the (VM, DC) tables and the per-DC work
// shrinks to the closed-form compose step.
//
// Contract: ComposeSLA(vm, SLAProc(vm, g, d), lat) must equal
// SLA(vm, g, d, lat) bit-for-bit for every latency (including zero), and
// SLA's ok must be constant-true — an estimator without a QoS model must
// not implement this interface.
type SLAProcEstimator interface {
	Estimator
	// SLAProc predicts the processing-stage fulfilment and response time
	// under a tentative grant, before any network latency is applied.
	SLAProc(vm *VMInfo, grantCPUPct, memDeficitFrac float64, s *Scratch) (slaProc, rtProc float64)
	// ComposeSLA applies a network latency to a processing-stage pair.
	ComposeSLA(vm *VMInfo, slaProc, rtProc, latencySec float64) float64
}

// BatchSLAEstimator is an SLAProcEstimator that answers many processing
// queries in one call, letting the backing model amortize per-query setup
// (tree descent, buffer churn) over a whole fill chunk. For each position
// p in idx, the query is (vms[idx[p]], grants[p], memDeficit 0) and the
// answers land in slaProc[p], rtProc[p] — results must be bit-identical
// to per-position SLAProc calls.
type BatchSLAEstimator interface {
	SLAProcEstimator
	SLAProcBatch(vms []VMInfo, idx []int32, grants, slaProc, rtProc []float64, s *Scratch)
}

// Observed sizes VMs by their monitored last-window usage — the plain
// Best-Fit of the paper's intra-DC comparison. It has no QoS model.
type Observed struct {
	// Overbook multiplies observed usage (1 = plain BF, 2 = BF-OB).
	Overbook float64
	// FloorCPU avoids sizing an idle-but-alive VM at zero.
	FloorCPU float64
	// VirtOverheadPct is the expert guess for per-host hypervisor overhead
	// (the non-ML world has to hardcode something).
	VirtOverheadPct float64
}

// NewObserved returns the plain monitored estimator.
func NewObserved() *Observed { return &Observed{Overbook: 1, FloorCPU: 5} }

// NewOverbooked returns the BF-OB estimator: double the observed usage to
// absorb unexpected peaks.
func NewOverbooked() *Observed { return &Observed{Overbook: 2, FloorCPU: 5} }

// Name implements Estimator.
func (o *Observed) Name() string {
	if o.Overbook > 1 {
		return "observed-overbooked"
	}
	return "observed"
}

// Required implements Estimator using the monitoring window.
func (o *Observed) Required(vm *VMInfo, _ *Scratch) model.Resources {
	ob := o.Overbook
	if ob <= 0 {
		ob = 1
	}
	r := vm.Observed.Scale(ob)
	if !vm.HasObserved {
		// Nothing measured yet (fresh VM): fall back to the memory floor
		// and a token CPU ask.
		r = model.Resources{CPUPct: 25, MemMB: vm.Spec.BaseMemMB}
	}
	if r.CPUPct < o.FloorCPU {
		r.CPUPct = o.FloorCPU
	}
	if r.MemMB < vm.Spec.BaseMemMB {
		r.MemMB = vm.Spec.BaseMemMB
	}
	return r
}

// SLA implements Estimator: the monitored world has no QoS model.
func (o *Observed) SLA(*VMInfo, float64, float64, float64, *Scratch) (float64, bool) {
	return 0, false
}

// VMCPUUsage implements Estimator: assume the VM keeps using what the
// window showed, bounded by the grant.
func (o *Observed) VMCPUUsage(vm *VMInfo, grantCPUPct float64, _ *Scratch) float64 {
	use := vm.Observed.CPUPct
	if !vm.HasObserved {
		use = 25
	}
	if use > grantCPUPct {
		use = grantCPUPct
	}
	return use
}

// PMCPU implements Estimator with a plain sum plus the hardcoded overhead.
func (o *Observed) PMCPU(nGuests int, sumVMCPUPct, sumRPS float64, _ *Scratch) float64 {
	if nGuests == 0 {
		return 0
	}
	return sumVMCPUPct + o.VirtOverheadPct
}

// ML sizes VMs with the trained predictor bundle — the paper's ML-enhanced
// Best-Fit. It anticipates requirements from the incoming load instead of
// trusting the stale window, and scores tentative placements with the
// learned SLA model.
type ML struct {
	Bundle *predict.Bundle
	// TargetRho converts predicted CPU *usage* into a CPU *requirement*:
	// requirement = usage / TargetRho, the headroom that keeps the
	// processor-sharing queue responsive between scheduling rounds.
	TargetRho float64
}

// NewML wraps a trained bundle with a 60% utilisation target, enough
// headroom to ride out intra-round load swings.
func NewML(b *predict.Bundle) *ML { return &ML{Bundle: b, TargetRho: 0.6} }

// Name implements Estimator.
func (m *ML) Name() string { return "ml" }

// RoundSeconds is the drain horizon for folding gateway backlog into the
// effective load (one scheduling round).
const RoundSeconds = 600

// ps unwraps the bundle scratch, tolerating callers that pass none.
func (m *ML) ps(s *Scratch) *predict.Scratch {
	if s == nil {
		return new(predict.Scratch)
	}
	return &s.Predict
}

// effectiveLoad folds the pending-request backlog into the request rate:
// the paper treats queue sizes as "additional immediate load". Sizing a
// tentative placement against current-rate-only would ignore the debt the
// VM must work off.
func (m *ML) effectiveLoad(vm *VMInfo) model.Load {
	l := vm.Total
	if vm.QueueLen > 0 {
		l.RPS += vm.QueueLen / RoundSeconds
	}
	return l
}

// Required implements Estimator via the learned resource models.
func (m *ML) Required(vm *VMInfo, s *Scratch) model.Resources {
	eff := m.effectiveLoad(vm)
	r := m.Bundle.PredictVMResourcesBuf(m.ps(s), eff, 0)
	rho := m.TargetRho
	if rho <= 0 || rho > 1 {
		rho = 0.7
	}
	r.CPUPct /= rho
	if r.MemMB < vm.Spec.BaseMemMB {
		r.MemMB = vm.Spec.BaseMemMB
	}
	if vm.Spec.MaxMemMB > 0 && r.MemMB > vm.Spec.MaxMemMB {
		r.MemMB = vm.Spec.MaxMemMB
	}
	return r
}

// SLA implements Estimator via the learned k-NN SLA model. The queue
// feature is evaluated counterfactually: what the backlog will look like
// after one round at the tentative grant. A starving grant grows the
// queue (the model's starved neighbourhoods answer), a generous grant
// drains it (healthy neighbourhoods answer) — this is what restores the
// profit gradient for a currently-backlogged VM.
func (m *ML) SLA(vm *VMInfo, grantCPUPct, memDeficitFrac, latencySec float64, s *Scratch) (float64, bool) {
	l, qAfter := slaQuery(vm, grantCPUPct)
	return m.Bundle.PredictSLABuf(m.ps(s), vm.Spec.Terms, l, grantCPUPct, memDeficitFrac, qAfter, latencySec), true
}

// slaQuery builds the SLA model's query point for a tentative grant: the
// total load plus the counterfactual backlog after one round at that grant.
func slaQuery(vm *VMInfo, grantCPUPct float64) (model.Load, float64) {
	l := vm.Total
	qAfter := vm.QueueLen
	if l.CPUTimeReq > 0 {
		mu := grantCPUPct / 100 / l.CPUTimeReq // service capacity, req/s
		qAfter += (l.RPS - mu) * RoundSeconds
		if qAfter < 0 {
			qAfter = 0
		}
	}
	return l, qAfter
}

// SLAProc implements SLAProcEstimator: the k-NN SLA query and the RT query
// share one feature row, so the pair costs one tree descent plus one model
// evaluation beyond the plain SLA call — and is latency-free, reusable
// across every DC.
func (m *ML) SLAProc(vm *VMInfo, grantCPUPct, memDeficitFrac float64, s *Scratch) (float64, float64) {
	l, qAfter := slaQuery(vm, grantCPUPct)
	return m.Bundle.PredictSLAProcBuf(m.ps(s), l, grantCPUPct, memDeficitFrac, qAfter)
}

// ComposeSLA implements SLAProcEstimator via the analytic transport shift.
func (m *ML) ComposeSLA(vm *VMInfo, slaProc, rtProc, latencySec float64) float64 {
	return predict.ComposeSLA(vm.Spec.Terms, slaProc, rtProc, latencySec)
}

// SLAProcBatch implements BatchSLAEstimator: it builds the feature matrix
// for the whole chunk (memory deficit 0 — the fill grants full memory) and
// hands it to the bundle's batched k-NN path in one call.
func (m *ML) SLAProcBatch(vms []VMInfo, idx []int32, grants, slaProc, rtProc []float64, s *Scratch) {
	if s == nil {
		s = new(Scratch)
	}
	rows := s.rows[:0]
	for p, i := range idx {
		l, qAfter := slaQuery(&vms[i], grants[p])
		rows = predict.VMSLAFeaturesAppend(rows, l, grants[p], 0, qAfter)
	}
	s.rows = rows
	m.Bundle.PredictSLAProcBatchBuf(m.ps(s), rows, len(idx), slaProc, rtProc)
}

// VMCPUUsage implements Estimator via the learned CPU model.
func (m *ML) VMCPUUsage(vm *VMInfo, grantCPUPct float64, s *Scratch) float64 {
	use := m.Bundle.PredictVMCPUBuf(m.ps(s), m.effectiveLoad(vm), 0)
	if use < 0 {
		use = 0
	}
	if use > grantCPUPct {
		use = grantCPUPct
	}
	return use
}

// PMCPU implements Estimator via the learned host model.
func (m *ML) PMCPU(nGuests int, sumVMCPUPct, sumRPS float64, s *Scratch) float64 {
	if nGuests == 0 {
		return 0
	}
	return m.Bundle.PredictPMCPUBuf(m.ps(s), nGuests, sumVMCPUPct, sumRPS)
}

var (
	_ Estimator         = (*Observed)(nil)
	_ Estimator         = (*ML)(nil)
	_ BatchSLAEstimator = (*ML)(nil)
)
