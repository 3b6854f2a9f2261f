package core

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/sched"
)

// Hierarchical is the paper's two-layer decomposition (Section III-B):
// every datacenter first solves its own intra-DC placement with Best-Fit,
// then exports a narrow interface to the global layer — the VMs that may
// benefit from moving (poor local SLA) and a few candidate hosts — and a
// global Best-Fit round decides the inter-DC moves. The interface keeps
// the global problem small: "each DC only provides to the global scheduler
// a set of available physical machines and a set of VM's that may benefit
// if scheduled somewhere else".
type Hierarchical struct {
	Inv  *cluster.Inventory
	Cost sched.CostModel
	Est  sched.Estimator

	// Reused per-DC local schedulers plus the global-round scheduler: each
	// owns a Round whose storage (and memoized estimates) survive across
	// management rounds. localBF[dc] is touched only by the worker running
	// dc's local round.
	localBF  []*sched.BestFit
	globalBF *sched.BestFit
}

// The export interface between the two layers.
const (
	// exportSLA is the local-fulfilment threshold below which a VM is
	// offered to the global round.
	exportSLA = 0.98
	// maxExportsPerDC bounds how many struggling VMs each DC offers to the
	// global round, keeping the paper's interface actually narrow: under
	// fleet-wide strain the threshold alone would export nearly everything
	// and the global round would grow back to the flat problem. The worst
	// locally-fulfilled VMs are exported first; the rest retry next round.
	maxExportsPerDC = 4
	// hostsPerDC is how many candidate hosts each DC exports.
	hostsPerDC = 1
)

// NewHierarchical builds the two-layer scheduler.
func NewHierarchical(inv *cluster.Inventory, cost sched.CostModel, est sched.Estimator) *Hierarchical {
	return &Hierarchical{Inv: inv, Cost: cost, Est: est}
}

// Name implements sched.Scheduler.
func (h *Hierarchical) Name() string { return "hierarchical-" + h.Est.Name() }

// Schedule implements sched.Scheduler.
func (h *Hierarchical) Schedule(p *sched.Problem) (model.Placement, error) {
	if h.Inv == nil {
		return nil, fmt.Errorf("core: Hierarchical.Inv is nil")
	}
	nDC := h.Inv.NumDCs()
	// Dense per-DC buckets: DC IDs are already a compact index space.
	// Hosts outside the inventory's DC range are skipped, matching the
	// old map behaviour where such buckets were never read.
	hostsByDC := make([][]sched.HostInfo, nDC)
	for _, host := range p.Hosts {
		if dc := host.Spec.DC; dc >= 0 && int(dc) < nDC {
			hostsByDC[dc] = append(hostsByDC[dc], host)
		}
	}
	vmsByDC := make([][]sched.VMInfo, nDC)
	var homeless []sched.VMInfo // entering VMs go straight to the global round
	for _, vm := range p.VMs {
		if vm.CurrentDC < 0 || int(vm.CurrentDC) >= nDC {
			homeless = append(homeless, vm)
			continue
		}
		vmsByDC[vm.CurrentDC] = append(vmsByDC[vm.CurrentDC], vm)
	}

	// Phase 1: intra-DC rounds, one per datacenter, in parallel on
	// par.DefaultWorkers goroutines. Each DC's problem touches only its
	// own VMs and hosts, so no state is shared.
	type localResult struct {
		placement model.Placement
		exports   []sched.VMInfo
		offers    []sched.HostInfo
		err       error
	}
	dcs := make([]model.DCID, 0, nDC)
	for dc := 0; dc < nDC; dc++ {
		dcs = append(dcs, model.DCID(dc))
	}
	if len(h.localBF) < nDC {
		h.localBF = append(h.localBF, make([]*sched.BestFit, nDC-len(h.localBF))...)
	}
	results := par.Map(dcs, 0, func(dc model.DCID) localResult {
		local := &sched.Problem{VMs: vmsByDC[dc], Hosts: hostsByDC[dc], Tick: p.Tick}
		if len(local.Hosts) == 0 {
			return localResult{placement: model.Placement{}}
		}
		if h.localBF[dc] == nil {
			h.localBF[dc] = sched.NewBestFit(h.Cost, h.Est)
		}
		bf := h.localBF[dc]
		placement, err := bf.Schedule(local)
		if err != nil {
			return localResult{err: err}
		}
		slas, err := h.estimateSLAs(local, placement, bf.Session())
		if err != nil {
			return localResult{err: err}
		}
		var candidates []int
		for k := range local.VMs {
			if slas[k] < exportSLA {
				candidates = append(candidates, k)
			}
		}
		// Narrow interface: only the worst-off candidates go global.
		if len(candidates) > maxExportsPerDC {
			sort.SliceStable(candidates, func(a, b int) bool {
				return slas[candidates[a]] < slas[candidates[b]]
			})
			candidates = candidates[:maxExportsPerDC]
			sort.Ints(candidates) // restore VM order for determinism
		}
		var exports []sched.VMInfo
		for _, k := range candidates {
			vm := local.VMs[k]
			// The export carries its local assignment as Current so the
			// global round's hysteresis can keep it home: without a
			// "stay" option, a strained DC's exports would all cram onto
			// the few offered hosts.
			if pm, ok := placement[vm.Spec.ID]; ok && pm != model.NoPM {
				vm.Current = pm
				vm.CurrentDC = dc
			}
			exports = append(exports, vm)
		}
		offers := h.offerHosts(local, placement, exports, bf.Session())
		return localResult{placement: placement, exports: exports, offers: offers}
	})

	merged := make(model.Placement, len(p.VMs))
	var globalVMs []sched.VMInfo
	var globalHosts []sched.HostInfo
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		for vm, pm := range r.placement {
			merged[vm] = pm
		}
		globalVMs = append(globalVMs, r.exports...)
		globalHosts = append(globalHosts, r.offers...)
	}
	globalVMs = append(globalVMs, homeless...)

	// Phase 2: the global inter-DC round over the narrow interface.
	if len(globalVMs) > 0 && len(globalHosts) > 0 {
		if h.globalBF == nil {
			h.globalBF = sched.NewBestFit(h.Cost, h.Est)
		}
		gPlacement, err := h.globalBF.Schedule(&sched.Problem{VMs: globalVMs, Hosts: globalHosts, Tick: p.Tick})
		if err != nil {
			return nil, err
		}
		for vm, pm := range gPlacement {
			merged[vm] = pm
		}
	} else if len(globalVMs) > 0 {
		// No offers anywhere (degenerate fleet): keep them where they are.
		for _, vm := range globalVMs {
			if vm.Current != model.NoPM {
				merged[vm.Spec.ID] = vm.Current
			}
		}
	}
	return merged, nil
}

// estimateSLAs scores every VM's fulfilment under a local placement using
// proportional occupation, the same arithmetic the simulator applies. The
// result is indexed by the VM's position in p.VMs; unplaced VMs (and VMs
// on hosts outside p.Hosts) score zero. round is the Best-Fit session that
// produced the placement: its memoized latencies always apply, and on
// uncontended hosts — where the proportional share is exactly the full
// requirement — its full-grant SLA estimates are reused instead of
// re-running the estimator.
func (h *Hierarchical) estimateSLAs(p *sched.Problem, placement model.Placement, round *sched.Round) ([]float64, error) {
	var scratch sched.Scratch
	req := make([]model.Resources, len(p.VMs))
	hostPos := make(map[model.PMID]int, len(p.Hosts))
	for j := range p.Hosts {
		hostPos[p.Hosts[j].Spec.ID] = j
	}
	members := make([][]int, len(p.Hosts)) // host position -> VM positions
	for k := range p.VMs {
		vm := &p.VMs[k]
		req[k] = h.Est.Required(vm, &scratch)
		pm, ok := placement[vm.Spec.ID]
		if !ok || pm == model.NoPM {
			continue
		}
		if j, ok := hostPos[pm]; ok {
			members[j] = append(members[j], k)
		}
	}
	out := make([]float64, len(p.VMs))
	for j := range p.Hosts {
		ms := members[j]
		if len(ms) == 0 {
			continue
		}
		host := &p.Hosts[j]
		capacity := host.Spec.Capacity.Sub(host.Resident).Max(model.Resources{})
		var sum model.Resources
		for _, k := range ms {
			sum = sum.Add(req[k])
		}
		shCPU, shMem, shBW := cluster.ShareFactors(capacity, sum)
		fullShare := shCPU == 1 && shMem == 1 && shBW == 1
		for _, k := range ms {
			vm := &p.VMs[k]
			r := req[k]
			lat := round.Latency(k, host.Spec.DC)
			// Full share of an uncapped requirement == the full grant the
			// round already scored (same estimator, same query).
			if fullShare && !h.Cost.LatencyOnly && r == round.Required(k) {
				out[k] = round.FullGrantSLA(k, host.Spec.DC)
				continue
			}
			grant := model.Resources{
				CPUPct: r.CPUPct * shCPU,
				MemMB:  r.MemMB * shMem,
				BWMbps: r.BWMbps * shBW,
			}
			memDef := 0.0
			if r.MemMB > 0 && grant.MemMB < r.MemMB {
				memDef = (r.MemMB - grant.MemMB) / r.MemMB
			}
			if v, ok := h.Est.SLA(vm, grant.CPUPct, memDef, lat, &scratch); ok {
				out[k] = v
			} else {
				out[k] = sched.HeuristicSLA(vm, r, grant, lat)
			}
		}
	}
	return out, nil
}

// offerHosts exposes the DC's least-loaded hosts to the global round plus
// every host currently holding an exported VM (so "leave it where the
// local round put it" stays on the table). Resident aggregates describe
// the guests that stay. round supplies memoized per-VM CPU estimates when
// its (capped) requirement matches the raw one.
func (h *Hierarchical) offerHosts(p *sched.Problem, placement model.Placement, exports []sched.VMInfo, round *sched.Round) []sched.HostInfo {
	var scratch sched.Scratch
	exported := make(map[model.VMID]bool, len(exports))
	holdsExport := make(map[model.PMID]bool, len(exports))
	for _, vm := range exports {
		exported[vm.Spec.ID] = true
		if pm, ok := placement[vm.Spec.ID]; ok && pm != model.NoPM {
			holdsExport[pm] = true
		}
	}
	type loaded struct {
		host sched.HostInfo
		cpu  float64
	}
	var hosts []loaded
	for _, host := range p.Hosts {
		resident := host.Resident
		guests := host.ResidentGuests
		rps := host.ResidentRPS
		cpuUse := host.ResidentCPUUsage
		for i := range p.VMs {
			vm := &p.VMs[i]
			if placement[vm.Spec.ID] != host.Spec.ID || exported[vm.Spec.ID] {
				continue
			}
			r := h.Est.Required(vm, &scratch)
			resident = resident.Add(r)
			guests++
			rps += vm.Total.RPS
			if r == round.Required(i) {
				cpuUse += round.FullGrantVMCPU(i)
			} else {
				cpuUse += h.Est.VMCPUUsage(vm, r.CPUPct, &scratch)
			}
		}
		offered := host
		offered.Resident = resident.Min(host.Spec.Capacity)
		offered.ResidentGuests = guests
		offered.ResidentRPS = rps
		offered.ResidentCPUUsage = cpuUse
		hosts = append(hosts, loaded{offered, resident.CPUPct})
	}
	sort.SliceStable(hosts, func(a, b int) bool { return hosts[a].cpu < hosts[b].cpu })
	out := make([]sched.HostInfo, 0, hostsPerDC)
	seen := make(map[model.PMID]bool)
	for i, l := range hosts {
		if i < hostsPerDC || holdsExport[l.host.Spec.ID] {
			if !seen[l.host.Spec.ID] {
				seen[l.host.Spec.ID] = true
				out = append(out, l.host)
			}
		}
	}
	return out
}

var _ sched.Scheduler = (*Hierarchical)(nil)
