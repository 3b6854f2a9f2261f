package sim

import "repro/internal/model"

// AppendGuests appends the VMs on a PM to dst in guest-list (VMID) order,
// so the external tests can check the placement's second half.
func (e *World) AppendGuests(dst []model.VMID, pm model.PMID) []model.VMID {
	j, ok := e.PMIndex(pm)
	if !ok {
		return dst
	}
	for _, vi := range e.guests[j] {
		dst = append(dst, e.vmIDs[vi])
	}
	return dst
}
