// Package cluster maintains the physical inventory of the multi-DC system
// and the current placement: which PM hosts which VM, what everyone's
// capacities are, and how a host's resources are split among its guests
// (the fOccupation function of Figure 3, constraint 5.2).
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// Inventory is the static description of the fleet: every PM, every VM and
// which DC each PM belongs to. It is immutable after construction.
type Inventory struct {
	pms     []model.PMSpec
	vms     []model.VMSpec
	pmByID  map[model.PMID]int
	vmByID  map[model.VMID]int
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
		vmByID:  make(map[model.VMID]int, len(vms)),
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
	for i, vm := range inv.vms {
		if _, dup := inv.vmByID[vm.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate VM id %v", vm.ID)
		}
		inv.vmByID[vm.ID] = i
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

// VM returns one VM's spec.
func (inv *Inventory) VM(id model.VMID) (model.VMSpec, bool) {
	i, ok := inv.vmByID[id]
	if !ok {
		return model.VMSpec{}, false
	}
	return inv.vms[i], true
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

// VMIndex returns the dense index of a VM (its position in VMs()).
func (inv *Inventory) VMIndex(id model.VMID) (int, bool) {
	i, ok := inv.vmByID[id]
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

// State is the mutable placement state of the fleet. It tracks which VMs
// sit on which PMs and offers the occupancy arithmetic every scheduler
// needs. Besides the immutable Inventory population, a State accepts
// dynamically admitted VMs (AddVM/RemoveVM) — the workload-lifecycle
// subsystem churns the VM set while the PM fleet stays fixed. State is
// not safe for concurrent mutation.
type State struct {
	inv       *Inventory
	placement model.Placement
	guests    map[model.PMID][]model.VMID
	// extra holds dynamically admitted VMs (never part of the Inventory).
	extra map[model.VMID]model.VMSpec
}

// NewState builds a state with every VM unplaced.
func NewState(inv *Inventory) *State {
	s := &State{
		inv:       inv,
		placement: make(model.Placement, len(inv.vms)),
		guests:    make(map[model.PMID][]model.VMID, len(inv.pms)),
	}
	for _, vm := range inv.vms {
		s.placement[vm.ID] = model.NoPM
	}
	return s
}

// Inventory returns the static fleet description.
func (s *State) Inventory() *Inventory { return s.inv }

// HostOf returns the PM hosting a VM (NoPM if unplaced).
func (s *State) HostOf(vm model.VMID) model.PMID {
	pm, ok := s.placement[vm]
	if !ok {
		return model.NoPM
	}
	return pm
}

// DCOfVM returns the datacenter currently hosting the VM, or -1.
func (s *State) DCOfVM(vm model.VMID) model.DCID {
	return s.inv.DCOf(s.HostOf(vm))
}

// GuestsOf returns the VMs on one PM in stable (sorted) order.
func (s *State) GuestsOf(pm model.PMID) []model.VMID {
	gs := s.guests[pm]
	out := append([]model.VMID(nil), gs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddVM registers a dynamically admitted VM (one that is not part of the
// immutable Inventory) so placement operations accept it. The VM starts
// unplaced. IDs must be unique across the inventory and every VM ever
// added but not yet removed.
func (s *State) AddVM(spec model.VMSpec) error {
	if _, ok := s.inv.vmByID[spec.ID]; ok {
		return fmt.Errorf("cluster: VM %v already in inventory", spec.ID)
	}
	if _, ok := s.extra[spec.ID]; ok {
		return fmt.Errorf("cluster: VM %v already admitted", spec.ID)
	}
	if s.extra == nil {
		s.extra = make(map[model.VMID]model.VMSpec)
	}
	s.extra[spec.ID] = spec
	s.placement[spec.ID] = model.NoPM
	return nil
}

// RemoveVM evicts and forgets a dynamically added VM. Inventory VMs are
// permanent and cannot be removed.
func (s *State) RemoveVM(id model.VMID) error {
	if _, ok := s.extra[id]; !ok {
		return fmt.Errorf("cluster: VM %v is not a dynamic VM", id)
	}
	if pm := s.placement[id]; pm != model.NoPM {
		s.guests[pm] = removeVM(s.guests[pm], id)
	}
	delete(s.placement, id)
	delete(s.extra, id)
	return nil
}

// DynamicVM returns the spec of a dynamically added VM.
func (s *State) DynamicVM(id model.VMID) (model.VMSpec, bool) {
	spec, ok := s.extra[id]
	return spec, ok
}

// knownVM reports whether a VM is in the inventory or dynamically added.
func (s *State) knownVM(vm model.VMID) bool {
	if _, ok := s.inv.vmByID[vm]; ok {
		return true
	}
	_, ok := s.extra[vm]
	return ok
}

// Place moves a VM onto a PM (or NoPM to evict it). It returns an error
// for unknown VMs or hosts; capacity is not enforced here because
// oversubscription is a legal (if painful) state the occupation function
// resolves.
func (s *State) Place(vm model.VMID, pm model.PMID) error {
	if !s.knownVM(vm) {
		return fmt.Errorf("cluster: unknown VM %v", vm)
	}
	if pm != model.NoPM {
		if _, ok := s.inv.pmByID[pm]; !ok {
			return fmt.Errorf("cluster: unknown PM %v", pm)
		}
	}
	old := s.placement[vm]
	if old == pm {
		return nil
	}
	if old != model.NoPM {
		s.guests[old] = removeVM(s.guests[old], vm)
	}
	s.placement[vm] = pm
	if pm != model.NoPM {
		s.guests[pm] = append(s.guests[pm], vm)
	}
	return nil
}

// Apply replaces the whole placement, returning the VMs that moved.
func (s *State) Apply(p model.Placement) ([]model.VMID, error) {
	moved := s.placement.Diff(p)
	for vm, pm := range p {
		if err := s.Place(vm, pm); err != nil {
			return nil, err
		}
	}
	return moved, nil
}

// ActivePMs returns the hosts with at least one guest, in stable order.
func (s *State) ActivePMs() []model.PMID {
	var out []model.PMID
	for _, pm := range s.inv.pms {
		if len(s.guests[pm.ID]) > 0 {
			out = append(out, pm.ID)
		}
	}
	return out
}

// removeVM deletes one VM from a guest list preserving order.
func removeVM(gs []model.VMID, vm model.VMID) []model.VMID {
	for i, g := range gs {
		if g == vm {
			return append(gs[:i], gs[i+1:]...)
		}
	}
	return gs
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
