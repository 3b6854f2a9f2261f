package lifecycle

import (
	"cmp"
	"slices"

	"repro/internal/model"
	"repro/internal/sim"
)

// Decision is the admission controller's verdict on one offered VM.
type Decision int

const (
	// Admit brings the VM into the world now.
	Admit Decision = iota
	// Defer keeps the VM in the deferral queue for a later retry
	// (capacity may free up as other VMs depart or load falls).
	Defer
	// Reject turns the VM away for good.
	Reject
)

// Offer is one VM awaiting an admission decision.
type Offer struct {
	Arrival *Arrival
	// Deferrals counts how many times this offer has been deferred.
	Deferrals int
}

// Departure is one scheduled VM retirement, due now.
type Departure struct {
	ID     model.VMID
	Handle sim.VMHandle
}

// Stats summarises a run's churn. All counters are cumulative.
type Stats struct {
	// Offered counts distinct VMs presented for admission.
	Offered int
	// Admitted/Rejected partition the resolved offers; Deferrals counts
	// defer decisions (one VM may defer many times before resolving).
	Admitted  int
	Rejected  int
	Deferrals int
	// Departed counts VMs retired at end of lifetime.
	Departed int
	// Placed counts admitted VMs that reached a host; PlacementTicks sums
	// their admission-to-first-host waits.
	Placed         int
	PlacementTicks int
}

// AdmissionRate is the fraction of offered VMs admitted (vacuously 1
// while nothing has been offered).
func (s Stats) AdmissionRate() float64 {
	if s.Offered == 0 {
		return 1
	}
	return float64(s.Admitted) / float64(s.Offered)
}

// MeanPlacementTicks is the mean admission-to-first-host wait of placed
// VMs (0 while none placed).
func (s Stats) MeanPlacementTicks() float64 {
	if s.Placed == 0 {
		return 0
	}
	return float64(s.PlacementTicks) / float64(s.Placed)
}

// Runner is the runtime event queue of one managed run: it walks the
// script's arrivals, keeps the deferral queue, schedules departures at
// admission time (lifetimes count from admission, which the script cannot
// know), and counts time-to-placement as the manager reports it. All
// queues are ordered slices, sized from the script at NewRunner; a Runner
// is single-goroutine, like the manager that owns it.
type Runner struct {
	// OnResolve, when set, observes every admission resolution the moment
	// it is recorded — the serve layer uses it to expose per-VM decisions
	// without a second bookkeeping path. It runs on the owning goroutine;
	// it must not call back into the Runner.
	OnResolve func(tick int, a *Arrival, d Decision)

	script   *Script
	next     int
	slab     []Offer // one offer per scripted arrival, by script index
	deferred []*Offer
	offers   []*Offer // reusable Due result
	deps     []departure
	due      []departure // reusable DeparturesDue scratch
	depsDue  []Departure // reusable DeparturesDue result
	stats    Stats
	met      Metrics // zero = recording off
	// pushed holds externally injected arrivals (serve mode: VM offers
	// arriving over the wire instead of from the pre-generated script),
	// in push order. Due drains the ones whose tick has come after the
	// script's, so scripted and pushed workloads compose deterministically
	// as long as pushes happen in a deterministic order.
	pushed []*Offer
}

// departure is one scheduled retirement; Runner.deps holds them in
// admission order, the tie-break at equal ticks.
type departure struct {
	tick   int
	id     model.VMID
	handle sim.VMHandle
}

// NewRunner builds a runner over a script. The script is read-only and
// may be shared; every Runner keeps its own cursors and queues, each sized
// for every scripted arrival at once so a scripted run never grows them.
func NewRunner(script *Script) *Runner {
	n := len(script.Arrivals)
	return &Runner{
		script:   script,
		slab:     make([]Offer, n),
		deferred: make([]*Offer, 0, n),
		offers:   make([]*Offer, 0, n),
		deps:     make([]departure, 0, n),
		due:      make([]departure, 0, n),
		depsDue:  make([]Departure, 0, n),
	}
}

// Script returns the script the runner walks.
func (r *Runner) Script() *Script { return r.script }

// Stats returns the churn counters so far.
func (r *Runner) Stats() Stats { return r.stats }

// SetMetrics attaches (or, with nil, detaches) the lifecycle counter
// family; every churn event is counted the moment Stats counts it.
func (r *Runner) SetMetrics(m *Metrics) { r.met = held(m) }

// PendingDeferred returns how many VMs currently sit in the deferral
// queue.
func (r *Runner) PendingDeferred() int { return len(r.deferred) }

// PendingPushed returns how many injected arrivals have not been offered
// yet (their ArriveTick has not come, or Due has not run since the push).
func (r *Runner) PendingPushed() int { return len(r.pushed) }

// Push injects one externally arriving VM into the runner outside the
// pre-generated script — the serve-mode intake path, where offers arrive
// over the wire. The arrival is offered for admission at the first Due
// call whose tick reaches a.ArriveTick, after deferred retries and
// scripted arrivals. Pushes must happen in a deterministic order (the
// serve layer sorts each tick's intake batch canonically) for runs to
// stay bit-identical. The arrival is counted in Stats.Offered when it is
// first offered, exactly like a scripted one.
func (r *Runner) Push(a Arrival) {
	ac := a
	r.pushed = append(r.pushed, &Offer{Arrival: &ac})
}

// Due returns the offers awaiting an admission decision at tick:
// previously deferred VMs first (oldest arrivals retry before fresh
// ones), then new arrivals whose tick has come. Every returned offer must
// be resolved via Resolve before the next Due call; the slice is reused.
func (r *Runner) Due(tick int) []*Offer {
	r.offers = r.offers[:0]
	r.offers = append(r.offers, r.deferred...)
	r.deferred = r.deferred[:0]
	for r.next < len(r.script.Arrivals) && r.script.Arrivals[r.next].ArriveTick <= tick {
		o := &r.slab[r.next]
		*o = Offer{Arrival: &r.script.Arrivals[r.next]}
		r.next++
		bump(&r.stats.Offered, r.met.Offered)
		r.offers = append(r.offers, o)
	}
	// Injected arrivals whose tick has come, in push order. The queue is
	// compacted in place so not-yet-due pushes keep their order.
	kept := r.pushed[:0]
	for _, o := range r.pushed {
		if o.Arrival.ArriveTick <= tick {
			bump(&r.stats.Offered, r.met.Offered)
			r.offers = append(r.offers, o)
		} else {
			kept = append(kept, o)
		}
	}
	r.pushed = kept
	return r.offers
}

// Resolve records the admission decision for an offer returned by Due.
// On Admit, h must be the engine handle of the admitted VM: the runner
// schedules the departure (admission tick + lifetime).
func (r *Runner) Resolve(tick int, o *Offer, d Decision, h sim.VMHandle) {
	switch d {
	case Admit:
		bump(&r.stats.Admitted, r.met.Admitted)
		a := o.Arrival
		if a.LifetimeTicks > 0 {
			r.deps = append(r.deps, departure{
				tick: tick + a.LifetimeTicks, id: a.Spec.ID, handle: h,
			})
		}
	case Defer:
		o.Deferrals++
		bump(&r.stats.Deferrals, r.met.Deferrals)
		r.deferred = append(r.deferred, o)
	case Reject:
		bump(&r.stats.Rejected, r.met.Rejected)
	}
	if r.OnResolve != nil {
		r.OnResolve(tick, o.Arrival, d)
	}
}

// DeparturesDue pops the departures scheduled at or before tick, in
// deterministic (departure tick, admission order) order. The returned
// slice is reused across calls. The caller retires each VM through the
// engine; a VM that was never placed still departs (it was live, serving
// nothing).
func (r *Runner) DeparturesDue(tick int) []Departure {
	// deps is append-ordered by admission, so the due entries are
	// collected in admission order and a stable sort by departure tick
	// orders them by (departure tick, admission order): retires happen in
	// a stable, meaningful order.
	r.due = r.due[:0]
	kept := r.deps[:0]
	for _, d := range r.deps {
		if d.tick <= tick {
			r.due = append(r.due, d)
		} else {
			kept = append(kept, d)
		}
	}
	r.deps = kept
	slices.SortStableFunc(r.due, func(a, b departure) int { return cmp.Compare(a.tick, b.tick) })
	r.depsDue = r.depsDue[:0]
	for _, d := range r.due {
		r.depsDue = append(r.depsDue, Departure{ID: d.id, Handle: d.handle})
		bump(&r.stats.Departed, r.met.Departed)
	}
	return r.depsDue
}

// CancelDeparture forgets a scheduled departure for a VM that left the
// world outside the normal lifetime path — shed in degraded mode after a
// fault eviction, for example. The VM is neither resurrected by its
// departure tick nor counted in Departed; admission counters are untouched
// (it really was admitted). Reports whether a departure was scheduled.
func (r *Runner) CancelDeparture(id model.VMID) bool {
	for i := range r.deps {
		if r.deps[i].id == id {
			r.deps = append(r.deps[:i], r.deps[i+1:]...)
			return true
		}
	}
	return false
}

// RecordPlaced counts an admitted VM that reached its first host after
// waiting ticks since admission.
func (r *Runner) RecordPlaced(ticks int) {
	bump(&r.stats.Placed, r.met.Placed)
	r.stats.PlacementTicks += ticks
}
