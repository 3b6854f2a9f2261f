package sim

import "repro/internal/model"

// HomelessCause says why a live VM has no host.
type HomelessCause uint8

const (
	// Admitted: the VM was admitted and has not reached a host yet.
	Admitted HomelessCause = iota + 1
	// Evicted: the VM's host failed under it (FailPM).
	Evicted
)

// Homeless is one homeless-VM record: a live VM without a host, why, since
// which tick, and the requirement reserved for it while it waits (an
// unhosted VM requires nothing in truth, so admission must count it
// here). AdmitVM opens a record with the reservation admission computed;
// FailPM opens one per evicted guest with its last required resources. A
// record closes when the VM gets a host (Housed) or retires.
type Homeless struct {
	ID    model.VMID
	Slot  int32
	Cause HomelessCause
	Since int
	Req   model.Resources
	// Open is true while the VM has no host; Housed is true once a
	// placement closed the record (false for a retired VM).
	Open, Housed bool
}

// Homeless returns the homeless-VM records in the order they were opened,
// including those closed since the last PruneHomeless. The slice is the
// World's own; read it, do not keep it.
func (e *World) Homeless() []Homeless { return e.home }

// NumHomeless returns how many open records have cause c.
func (e *World) NumHomeless(c HomelessCause) int { return e.nHome[c] }

// HomelessAt returns slot i's open record, if it has one.
func (e *World) HomelessAt(i int) (Homeless, bool) {
	if i < 0 || i >= e.nVM || e.homeAt[i] < 0 {
		return Homeless{}, false
	}
	return e.home[e.homeAt[i]], true
}

// PruneHomeless drops the closed records, keeping the open ones in order.
func (e *World) PruneHomeless() {
	kept := e.home[:0]
	for _, h := range e.home {
		if h.Open {
			e.homeAt[h.Slot] = int32(len(kept))
			kept = append(kept, h)
		}
	}
	e.home = kept
}

// openHomeless opens a record for slot i, which has none. The record list
// holds at most one open record per slot, so pruning a full list always
// makes room and the list never grows past its construction capacity.
func (e *World) openHomeless(i int32, c HomelessCause, req model.Resources) {
	if len(e.home) == cap(e.home) {
		e.PruneHomeless()
	}
	e.homeAt[i] = int32(len(e.home))
	e.home = append(e.home, Homeless{
		ID: e.vmIDs[i], Slot: i, Cause: c, Since: e.tick, Req: req, Open: true,
	})
	e.nHome[c]++
}

// closeHomeless closes slot i's open record, if any; housed says whether
// the VM got a host (otherwise it retired).
func (e *World) closeHomeless(i int32, housed bool) {
	k := e.homeAt[i]
	if k < 0 {
		return
	}
	h := &e.home[k]
	h.Open, h.Housed = false, housed
	e.nHome[h.Cause]--
	e.homeAt[i] = -1
}
