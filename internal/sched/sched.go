// Package sched contains the decision makers that solve the paper's
// mathematical program (Figure 3): the profit evaluator that scores a
// tentative (VM, host) assignment on revenue, energy and migration cost,
// and the schedulers built on it — Ordered Best-Fit (Algorithm 1), its
// overbooking variant, the ML-enhanced version fed by learned predictors,
// a static baseline and an exhaustive branch-and-bound solver standing in
// for the MILP comparison.
package sched

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/power"
)

// VMInfo is everything the decision maker knows about one schedulable VM.
type VMInfo struct {
	Spec model.VMSpec
	// Load is the expected per-source load for the next round (the gateway
	// observes the current round; the paper's proactive variant feeds the
	// same numbers into predictors).
	Load model.LoadVector
	// Total is Load.Total(), precomputed.
	Total model.Load
	// QueueLen is the gateway's pending-request backlog for this VM.
	QueueLen float64
	// Observed is the window-averaged monitored usage ("resources used in
	// the last 10 minutes"), the non-ML sizing basis.
	Observed    model.Resources
	HasObserved bool
	// Current is the VM's present host (NoPM if entering the system).
	Current model.PMID
	// CurrentDC is the DC of Current (-1 if none).
	CurrentDC model.DCID
}

// HostInfo is everything the decision maker knows about one candidate host.
type HostInfo struct {
	Spec model.PMSpec
	// Resident is the resource requirement of guests that stay on this host
	// and are not part of this scheduling round.
	Resident model.Resources
	// ResidentGuests counts those staying guests.
	ResidentGuests int
	// ResidentRPS is their total request rate.
	ResidentRPS float64
	// ResidentCPUUsage is their observed/predicted CPU usage.
	ResidentCPUUsage float64
}

// Problem is one scheduling round.
type Problem struct {
	VMs   []VMInfo
	Hosts []HostInfo
	// Tick anchors the round in simulation time so time-varying energy
	// prices (the green-energy extension) are priced correctly.
	Tick int
}

// Scheduler computes a placement for the VMs of a problem.
type Scheduler interface {
	// Schedule returns the chosen host per VM. VMs may be left out of the
	// map only if no host exists at all.
	Schedule(p *Problem) (model.Placement, error)
	// Name identifies the scheduler in reports.
	Name() string
}

// CostModel carries the economics of Figure 3's objective function.
type CostModel struct {
	Top *network.Topology
	// HorizonHours is the revenue/energy horizon of one decision — the
	// scheduling round length (paper: 10 minutes).
	HorizonHours float64
	// EnergyAware includes the energy term (switching it off reproduces the
	// pure "follow the load" sanity check of Figure 5).
	EnergyAware bool
	// MigrationAware includes migration penalties.
	MigrationAware bool
	// LatencyOnly scores SLA purely from client latency, ignoring resource
	// competition (Figure 5's driving function).
	LatencyOnly bool
}

// NewCostModel returns the full objective of the paper's evaluation; host
// power is the paper's Atom curve (package power).
func NewCostModel(top *network.Topology, horizonHours float64) CostModel {
	return CostModel{
		Top: top, HorizonHours: horizonHours,
		EnergyAware: true, MigrationAware: true,
	}
}

// Validate reports configuration errors.
func (c *CostModel) Validate() error {
	if c.Top == nil {
		return fmt.Errorf("sched: CostModel.Top is nil")
	}
	if c.HorizonHours <= 0 {
		return fmt.Errorf("sched: non-positive horizon %v", c.HorizonHours)
	}
	return nil
}

// Round is a reusable profit-evaluation session over one problem. Host
// state lives in dense structure-of-arrays slices, and everything the old
// per-candidate evaluation recomputed from scratch is memoized once per
// round (see DESIGN.md, "Scheduling round hot path"):
//
//   - per-VM requirements and full-grant VM CPU usage,
//   - per-(VM, DC) request-weighted mean latencies, full-grant SLA
//     estimates and migration penalties,
//   - per-DC energy prices at the round's tick,
//   - per-host powered-on baseline watts, invalidated only by
//     Assign/Unassign (the only mutations of tentative host state).
//
// Profit changes no tentative host state; it writes only the round's own
// scratch (memos and inference counters). A Round is therefore used by
// one goroutine, and its inference-work counts are pure functions of the
// problem.
type Round struct {
	cost CostModel
	est  Estimator
	vms  []VMInfo
	tick int

	// per-VM state.
	req       []model.Resources
	vmCPUFull []float64         // est.VMCPUUsage at the full-requirement grant
	prevAvail []model.Resources // snapshot for exact Unassign restoration

	// per-host SoA state (index parallel to Problem.Hosts).
	hID          []model.PMID
	hDC          []model.DCID
	hCapCPU      []float64
	hAvail       []model.Resources
	hGuests      []int
	hSumCPU      []float64
	hSumRPS      []float64
	hAssigned    []int
	hWattsBefore []float64 // facility watts of the tentative population

	// memoized tables. Only rows of DCs present among the candidate hosts
	// are filled; absent-DC entries are stale and must not be read.
	nDC       int
	dcs       []int     // distinct DCs hosting candidates
	dcPresent []bool    // [dc] membership of dcs
	priceDC   []float64 // EUR/kWh per DC at tick
	latVMDC   []float64 // [i*nDC+dc] mean client latency
	slaFull   []float64 // [i*nDC+dc] SLA estimate at grant == req
	migPen    []float64 // [i*nDC+dc] migration penalty EUR

	idx       map[model.PMID]int
	maxCap    model.Resources // largest host capacity, caps requirements
	needWatts bool
	gen       uint64 // Reset counter, invalidates scratch-level memos
	scratch   Scratch

	// Proc-split views of est (nil when the estimator does not factor).
	estProc  SLAProcEstimator
	estBatch BatchSLAEstimator

	// fillList is the identity list of VM rows 0..n-1 the fill walks.
	fillList []int32

	// Instrumentation of the last Reset.
	fillNS int64

	// Candidate-pruning shortlist index (enabled via SetPrune): the
	// equivalence classes of tentative host state, rebuilt by Reset and
	// re-keyed by Assign/Unassign. See prune.go.
	pruneOn  bool
	pruneIdx pruneIndex
}

// fill computes the per-VM table rows of every VM in three stages: (1)
// capped requirements and full-grant CPU usage, which also yields the
// grant vector; (2) the latency-independent SLA processing stage — one
// query per VM, batched through the estimator when it supports
// BatchSLAEstimator, so the k-NN descent is amortized over the whole
// round; (3) the per-candidate-DC latency, composed SLA and migration
// penalty.
//
// Estimators without the proc split fall back to the per-(VM, DC) SLA
// query of the original fill; both paths are bit-identical to it (the
// split contract requires compose(proc) == SLA exactly).
func (r *Round) fill() {
	list, s := r.fillList, &r.scratch
	n := len(list)
	// Stage 1: requirements and grants. A VM's requirement is capped at
	// the largest host: constraint (2) of Figure 3 makes asking for more
	// than a whole machine meaningless, and the cap defuses estimator
	// extrapolation on unseen load levels.
	s.grants = grown(s.grants, n)
	capReq := len(r.hID) > 0
	for p, i := range list {
		vm := &r.vms[i]
		req := r.est.Required(vm, s).Max(model.Resources{})
		if capReq {
			req = req.Min(r.maxCap)
		}
		r.req[i] = req
		r.vmCPUFull[i] = r.est.VMCPUUsage(vm, req.CPUPct, s)
		s.grants[p] = req.CPUPct
	}
	// Stage 2: the latency-free processing stage (skipped when the cost
	// model scores latency only, or the estimator does not factor).
	useProc := r.estProc != nil && !r.cost.LatencyOnly
	if useProc {
		s.slaProc = grown(s.slaProc, n)
		s.rtProc = grown(s.rtProc, n)
		if r.estBatch != nil {
			r.estBatch.SLAProcBatch(r.vms, list, s.grants, s.slaProc, s.rtProc, s)
		} else {
			for p, i := range list {
				s.slaProc[p], s.rtProc[p] = r.estProc.SLAProc(&r.vms[i], s.grants[p], 0, s)
			}
		}
	}
	// Stage 3: per-DC columns.
	for p, i := range list {
		vm := &r.vms[int(i)]
		base := int(i) * r.nDC
		for _, dc := range r.dcs {
			lat := r.cost.Top.MeanLatencyFrom(model.DCID(dc), vm.Load)
			r.latVMDC[base+dc] = lat
			var sla float64
			switch {
			case r.cost.LatencyOnly:
				sla = vm.Spec.Terms.Fulfilment(vm.Spec.Terms.RT0/2 + lat)
			case useProc:
				sla = r.estProc.ComposeSLA(vm, s.slaProc[p], s.rtProc[p], lat)
			default:
				if v, ok := r.est.SLA(vm, s.grants[p], 0, lat, s); ok {
					sla = v
				} else {
					sla = HeuristicSLA(vm, r.req[i], r.req[i], lat)
				}
			}
			r.slaFull[base+dc] = sla
			pen := 0.0
			if r.cost.MigrationAware && vm.Current != model.NoPM {
				down := r.cost.Top.MigrationDuration(vm.Spec.ImageSizeGB, vm.CurrentDC, model.DCID(dc))
				// Explicit penalty fee plus the revenue lost while blacked out.
				pen = 2 * vm.Spec.PriceEURh * down / 3600
			}
			r.migPen[base+dc] = pen
		}
	}
}

// NewRound builds a Round and primes it for the problem; Reset reuses it.
func NewRound(p *Problem, cost CostModel, est Estimator) (*Round, error) {
	r := &Round{}
	if err := r.Reset(p, cost, est); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset re-primes the round for a (possibly new) problem, reusing all
// internal storage — the steady-state path allocates nothing. The round
// aliases p.VMs until the next Reset.
func (r *Round) Reset(p *Problem, cost CostModel, est Estimator) error {
	fillStart := time.Now()
	if err := cost.Validate(); err != nil {
		return err
	}
	if est == nil {
		return fmt.Errorf("sched: estimator is nil")
	}
	r.cost, r.est, r.vms, r.tick = cost, est, p.VMs, p.Tick
	r.estProc, _ = est.(SLAProcEstimator)
	r.estBatch, _ = est.(BatchSLAEstimator)
	r.gen++
	nV, nH := len(p.VMs), len(p.Hosts)
	r.nDC = cost.Top.NumDCs()

	// Hosts: dense columns plus the id index.
	r.hID = grown(r.hID, nH)
	r.hDC = grown(r.hDC, nH)
	r.hCapCPU = grown(r.hCapCPU, nH)
	r.hAvail = grown(r.hAvail, nH)
	r.hGuests = grown(r.hGuests, nH)
	r.hSumCPU = grown(r.hSumCPU, nH)
	r.hSumRPS = grown(r.hSumRPS, nH)
	r.hAssigned = grown(r.hAssigned, nH)
	r.hWattsBefore = grown(r.hWattsBefore, nH)
	if r.idx == nil {
		r.idx = make(map[model.PMID]int, nH)
	} else {
		clear(r.idx)
	}
	var maxCap model.Resources
	for j := range p.Hosts {
		h := &p.Hosts[j]
		if h.Spec.DC < 0 || int(h.Spec.DC) >= r.nDC {
			return fmt.Errorf("sched: host %v in DC %v outside topology (%d DCs)",
				h.Spec.ID, h.Spec.DC, r.nDC)
		}
		r.hID[j] = h.Spec.ID
		r.hDC[j] = h.Spec.DC
		r.hCapCPU[j] = h.Spec.Capacity.CPUPct
		r.hAvail[j] = h.Spec.Capacity.Sub(h.Resident).Max(model.Resources{})
		r.hGuests[j] = h.ResidentGuests
		r.hSumCPU[j] = h.ResidentCPUUsage
		r.hSumRPS[j] = h.ResidentRPS
		r.hAssigned[j] = 0
		r.idx[h.Spec.ID] = j
		maxCap = maxCap.Max(h.Spec.Capacity)
	}
	// Distinct DCs among the candidates: the per-(VM, DC) tables below are
	// filled only for these, so a single-DC sub-problem (the hierarchical
	// scheduler's local rounds) pays one column, not the whole topology.
	r.dcPresent = grown(r.dcPresent, r.nDC)
	for dc := range r.dcPresent {
		r.dcPresent[dc] = false
	}
	r.dcs = r.dcs[:0]
	for j := 0; j < nH; j++ {
		if dc := int(r.hDC[j]); !r.dcPresent[dc] {
			r.dcPresent[dc] = true
			r.dcs = append(r.dcs, dc)
		}
	}

	r.maxCap = maxCap

	// Per-DC energy prices at this round's tick.
	r.priceDC = cost.Top.EnergyPricesAt(p.Tick, r.priceDC)

	// Per-VM tables: requirement, full-grant CPU usage, and the per-DC
	// latency / full-grant SLA / migration-penalty columns.
	r.req = grown(r.req, nV)
	r.vmCPUFull = grown(r.vmCPUFull, nV)
	r.prevAvail = grown(r.prevAvail, nV)
	r.latVMDC = grown(r.latVMDC, nV*r.nDC)
	r.slaFull = grown(r.slaFull, nV*r.nDC)
	r.migPen = grown(r.migPen, nV*r.nDC)

	// Fill every row in one pass, so the batched processing stage
	// amortizes over the whole round rather than single VMs.
	if len(r.fillList) != nV {
		r.fillList = grown(r.fillList, nV)
		for i := range r.fillList {
			r.fillList[i] = int32(i)
		}
	}
	r.fill()

	// Prime the per-host baseline watts.
	r.needWatts = cost.EnergyAware && !cost.LatencyOnly
	if r.needWatts {
		for j := 0; j < nH; j++ {
			r.recomputeWattsBefore(j)
		}
	}
	if r.pruneOn {
		r.pruneIdx.rebuildPrune(r)
	}
	r.fillNS = time.Since(fillStart).Nanoseconds()
	return nil
}

// FillNS reports the wall-clock nanoseconds of the last Reset's table fill.
func (r *Round) FillNS() int64 { return r.fillNS }

// Required exposes the estimated requirement of VM i.
func (r *Round) Required(i int) model.Resources { return r.req[i] }

// NumHosts returns the candidate host count.
func (r *Round) NumHosts() int { return len(r.hID) }

// NumVMs returns the schedulable VM count.
func (r *Round) NumVMs() int { return len(r.vms) }

// HostID returns the PMID of host j.
func (r *Round) HostID(j int) model.PMID { return r.hID[j] }

// HostIndex returns the dense index of the host with the given id.
func (r *Round) HostIndex(id model.PMID) (int, bool) {
	j, ok := r.idx[id]
	return j, ok
}

// FullGrantSLA exposes the memoized SLA estimate of VM i when a host in dc
// grants its full requirement — the quantity a composite scheduler (e.g.
// the hierarchical decomposition) would otherwise re-predict. dc must be a
// DC with candidate hosts in this round.
func (r *Round) FullGrantSLA(i int, dc model.DCID) float64 {
	return r.slaFull[i*r.nDC+int(dc)]
}

// FullGrantVMCPU exposes the memoized CPU usage estimate of VM i under its
// full requirement grant.
func (r *Round) FullGrantVMCPU(i int) float64 { return r.vmCPUFull[i] }

// Latency exposes the memoized mean client latency of VM i hosted in dc.
// dc must be a DC with candidate hosts in this round.
func (r *Round) Latency(i int, dc model.DCID) float64 {
	return r.latVMDC[i*r.nDC+int(dc)]
}

// recomputeWattsBefore refreshes host j's powered-on baseline draw; called
// whenever the tentative population of j changes.
func (r *Round) recomputeWattsBefore(j int) {
	if r.hGuests[j] <= 0 {
		r.hWattsBefore[j] = 0
		return
	}
	prevPM := r.est.PMCPU(r.hGuests[j], r.hSumCPU[j], r.hSumRPS[j], &r.scratch)
	prevPM = clampF(prevPM, 0, r.hCapCPU[j])
	r.hWattsBefore[j] = power.FacilityWatts(prevPM)
}

// Profit scores placing VM i on host j given the current tentative state —
// the per-assignment form of Figure 3's objective:
//
//	frevenue(SLA) - fpenalty(migration) - fenergycost(marginal power).
func (r *Round) Profit(i, j int) float64 {
	s := &r.scratch
	vm := &r.vms[i]
	req := r.req[i]
	avail := r.hAvail[j]
	dc := int(r.hDC[j])
	base := i*r.nDC + dc
	lat := r.latVMDC[base]

	// The common uncongested case — the host can grant the full
	// requirement — reuses the memoized full-grant estimates; the congested
	// case pays the estimator for the clamped grant, deduplicated through
	// the scratch memo (hosts with equal availability in the same DC pose
	// the exact same query).
	fits := req.FitsIn(avail)

	var slaEst float64
	var entry *profitCacheEntry
	if fits || r.cost.LatencyOnly {
		slaEst = r.slaFull[base]
	} else if r.estProc != nil {
		// Proc-split estimator: memoize the latency-free processing pair
		// under dc == -1 so one entry serves every DC, and compose the
		// host's latency per call (closed-form, cheap).
		grant := req.Min(avail)
		entry = s.profitEntry(r, i, grant.CPUPct, memDeficitFrac(grant.MemMB, req.MemMB), -1)
		if !entry.hasSLA {
			entry.sla, entry.rt = r.estProc.SLAProc(vm, entry.grantCPU, entry.memDef, s)
			entry.hasSLA = true
		}
		slaEst = r.estProc.ComposeSLA(vm, entry.sla, entry.rt, lat)
	} else {
		grant := req.Min(avail)
		entry = s.profitEntry(r, i, grant.CPUPct, memDeficitFrac(grant.MemMB, req.MemMB), dc)
		if !entry.hasSLA {
			if v, ok := r.est.SLA(vm, entry.grantCPU, entry.memDef, lat, s); ok {
				entry.sla = v
			} else {
				entry.sla = HeuristicSLA(vm, req, grant, lat)
			}
			entry.hasSLA = true
		}
		slaEst = entry.sla
	}
	profit := vm.Spec.PriceEURh * slaEst * r.cost.HorizonHours

	if r.needWatts {
		var vmCPU float64
		if fits {
			vmCPU = r.vmCPUFull[i]
		} else {
			// needWatts implies !LatencyOnly, so entry is set above.
			if !entry.hasCPU {
				entry.vmCPU = r.est.VMCPUUsage(vm, entry.grantCPU, s)
				entry.hasCPU = true
			}
			vmCPU = entry.vmCPU
		}
		marginal := s.marginalWatts(r, i, j, vmCPU)
		profit -= power.EnergyEUR(marginal, r.cost.HorizonHours, r.priceDC[dc])
	}

	if r.cost.MigrationAware && vm.Current != model.NoPM && vm.Current != r.hID[j] {
		profit -= r.migPen[base]
	}
	return profit
}

// Assign commits VM i to host j, updating the tentative host state and
// invalidating the cached baseline watts of j.
func (r *Round) Assign(i, j int) {
	r.prevAvail[i] = r.hAvail[j]
	r.hAvail[j] = r.hAvail[j].Sub(r.req[i]).Max(model.Resources{})
	r.hSumCPU[j] += r.vmCPUFull[i]
	r.hSumRPS[j] += r.vms[i].Total.RPS
	r.hGuests[j]++
	r.hAssigned[j]++
	if r.needWatts {
		r.recomputeWattsBefore(j)
	}
	if r.pruneOn && r.pruneIdx.valid {
		r.pruneIdx.rekeyHost(r, j)
	}
}

// Unassign reverses Assign (used by the branch-and-bound solver). The
// caller must unwind in reverse assignment order; restoration is exact
// because Assign snapshots the availability it clobbered — adding the
// requirement back would over-restore whenever the requirement exceeded
// what was actually available (the clamp in Assign).
func (r *Round) Unassign(i, j int) {
	r.hAvail[j] = r.prevAvail[i]
	r.hSumCPU[j] -= r.vmCPUFull[i]
	r.hSumRPS[j] -= r.vms[i].Total.RPS
	r.hGuests[j]--
	r.hAssigned[j]--
	if r.needWatts {
		r.recomputeWattsBefore(j)
	}
	if r.pruneOn && r.pruneIdx.valid {
		r.pruneIdx.rekeyHost(r, j)
	}
}

// HeuristicSLA is the model-free QoS guess the plain Best-Fit works with:
// full marks when the requirement fits, degraded by the granted fraction
// when it does not, always discounted by client latency.
func HeuristicSLA(vm *VMInfo, req, grant model.Resources, latency float64) float64 {
	base := vm.Spec.Terms.Fulfilment(vm.Spec.Terms.RT0*0.8 + latency)
	if req.CPUPct <= 0 {
		return base
	}
	frac := grant.CPUPct / req.CPUPct
	if frac >= 1 {
		return base
	}
	return base * frac * frac // quadratic: CPU starvation is super-linear pain
}

func memDeficitFrac(granted, required float64) float64 {
	if required <= 0 || granted >= required {
		return 0
	}
	if granted <= 0 {
		return 1
	}
	return (required - granted) / required
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// grown returns s resized to n, reusing capacity; contents are undefined
// (callers overwrite every element).
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growKeep returns s resized to n, preserving existing contents (the
// prune index's per-DC lists and class arena must survive growth).
func growKeep[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]T, n, n+n/2+8)
	copy(ns, s)
	return ns
}
