// Package cluster describes the physical inventory of the multi-DC
// system (every PM, every static VM and which DC each PM belongs to) and
// how a host's resources are split among its guests (the fOccupation
// function of Figure 3, constraint 5.2). The placement itself lives in
// sim.World.
package cluster

import (
	"fmt"

	"repro/internal/model"
)

// Inventory is the static description of the fleet: every PM, every VM and
// which DC each PM belongs to. It is immutable after construction.
type Inventory struct {
	pms     []model.PMSpec
	vms     []model.VMSpec
	pmByID  map[model.PMID]int
	pmsOfDC map[model.DCID][]model.PMID
	numDCs  int
}

// NewInventory builds and validates an inventory.
func NewInventory(pms []model.PMSpec, vms []model.VMSpec) (*Inventory, error) {
	if len(pms) == 0 {
		return nil, fmt.Errorf("cluster: need at least one PM")
	}
	inv := &Inventory{
		pms:     append([]model.PMSpec(nil), pms...),
		vms:     append([]model.VMSpec(nil), vms...),
		pmByID:  make(map[model.PMID]int, len(pms)),
		pmsOfDC: make(map[model.DCID][]model.PMID),
	}
	for i, pm := range inv.pms {
		if _, dup := inv.pmByID[pm.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate PM id %v", pm.ID)
		}
		if !pm.Capacity.NonNegative() || pm.Capacity.CPUPct == 0 {
			return nil, fmt.Errorf("cluster: PM %v has invalid capacity %v", pm.ID, pm.Capacity)
		}
		inv.pmByID[pm.ID] = i
		inv.pmsOfDC[pm.DC] = append(inv.pmsOfDC[pm.DC], pm.ID)
		if int(pm.DC) >= inv.numDCs {
			inv.numDCs = int(pm.DC) + 1
		}
	}
	seen := make(map[model.VMID]bool, len(vms))
	for _, vm := range inv.vms {
		if seen[vm.ID] {
			return nil, fmt.Errorf("cluster: duplicate VM id %v", vm.ID)
		}
		seen[vm.ID] = true
	}
	return inv, nil
}

// PMs returns all physical machines.
func (inv *Inventory) PMs() []model.PMSpec { return inv.pms }

// VMs returns all virtual machines.
func (inv *Inventory) VMs() []model.VMSpec { return inv.vms }

// PM returns one PM's spec.
func (inv *Inventory) PM(id model.PMID) (model.PMSpec, bool) {
	i, ok := inv.pmByID[id]
	if !ok {
		return model.PMSpec{}, false
	}
	return inv.pms[i], true
}

// NumDCs returns the number of distinct datacenters (max DC index + 1).
func (inv *Inventory) NumDCs() int { return inv.numDCs }

// NumPMs returns the number of physical machines.
func (inv *Inventory) NumPMs() int { return len(inv.pms) }

// NumVMs returns the number of virtual machines.
func (inv *Inventory) NumVMs() int { return len(inv.vms) }

// PMIndex returns the dense index of a PM (its position in PMs()).
func (inv *Inventory) PMIndex(id model.PMID) (int, bool) {
	i, ok := inv.pmByID[id]
	return i, ok
}

// PMsOfDC returns the PMs of one datacenter, in stable order.
func (inv *Inventory) PMsOfDC(dc model.DCID) []model.PMID {
	return inv.pmsOfDC[dc]
}

// DCOf returns the datacenter of a PM, or -1 for NoPM / unknown hosts.
func (inv *Inventory) DCOf(pm model.PMID) model.DCID {
	if i, ok := inv.pmByID[pm]; ok {
		return inv.pms[i].DC
	}
	return -1
}

func shareFactor(demand, capacity float64) float64 {
	if demand <= capacity || demand <= 0 {
		return 1
	}
	return capacity / demand
}

// ShareFactors returns the per-dimension proportional-sharing factors of
// fOccupation (Figure 3) for a total demand against a capacity: 1 while
// the demand fits, capacity/demand once it oversubscribes. Each guest is
// granted its requirement scaled by these factors (processor-sharing
// semantics), so an oversubscribed PM splits every dimension in
// proportion to the guests' asks.
func ShareFactors(capacity, demand model.Resources) (cpu, mem, bw float64) {
	return shareFactor(demand.CPUPct, capacity.CPUPct),
		shareFactor(demand.MemMB, capacity.MemMB),
		shareFactor(demand.BWMbps, capacity.BWMbps)
}
