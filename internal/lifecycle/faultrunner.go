package lifecycle

// FaultRunner replays a FaultScript into a managed run and keeps the
// availability counters: evictions, how long evicted VMs waited for a
// host, and the fleet-wide downtime fraction. Which VMs wait is the
// World's homeless-VM record (sim.Homeless); the manager reports what
// happens to them. Like Runner it is deterministic and allocation-free:
// the due-event buffer is sized from the script.

// FaultStats aggregates fault-layer outcomes over a run.
type FaultStats struct {
	// Event counts, by kind.
	Crashes       int
	Repairs       int
	DrainsStarted int
	Takedowns     int
	OutageStarts  int

	// Interruptions is the number of VM evictions caused by faults
	// (a VM interrupted twice counts twice). ForcedEvictions is the
	// subset evicted by a drain deadline expiring with guests aboard.
	Interruptions   int
	ForcedEvictions int

	// Re-home outcomes: how many interrupted VMs were placed again, the
	// summed and worst-case latency in ticks from eviction to re-placement,
	// and how many were shed (retired while homeless in degraded mode).
	Rehomed        int
	RehomeTicksSum int
	MaxRehomeTicks int
	Shed           int

	// DowntimeTicks counts VM-ticks spent homeless after an interruption;
	// VMTicks counts active VM-ticks overall, so Availability() is the
	// fraction of VM-time actually served. DegradedTicks counts ticks the
	// manager spent in degraded mode (committed load over surviving
	// capacity).
	DowntimeTicks int
	VMTicks       int
	DegradedTicks int
}

// Availability is served VM-time over total VM-time: 1 - downtime/total.
// A run with no VM-ticks is vacuously fully available.
func (s FaultStats) Availability() float64 {
	if s.VMTicks <= 0 {
		return 1
	}
	return 1 - float64(s.DowntimeTicks)/float64(s.VMTicks)
}

// MeanRehomeTicks is the average eviction-to-replacement latency over
// re-homed VMs (0 when none were re-homed).
func (s FaultStats) MeanRehomeTicks() float64 {
	if s.Rehomed == 0 {
		return 0
	}
	return float64(s.RehomeTicksSum) / float64(s.Rehomed)
}

// FaultRunner walks a FaultScript and accounts for its consequences.
type FaultRunner struct {
	script *FaultScript
	next   int

	due []FaultEvent // reused buffer returned by Due

	// pushed holds externally injected fault events (serve mode: faults
	// reported over the wire instead of scripted), in push order; Due
	// drains the due ones after the script's.
	pushed []FaultEvent

	stats FaultStats
	met   Metrics // zero = recording off
}

// NewFaultRunner wraps a generated script. A nil script yields a runner
// that never fires (useful for uniform wiring). The due buffer holds the
// script's busiest tick, so only injected events can grow it.
func NewFaultRunner(script *FaultScript) *FaultRunner {
	if script == nil {
		script = &FaultScript{}
	}
	most := 0
	for i, n := 0, 0; i < len(script.Events); i++ {
		if i > 0 && script.Events[i].Tick == script.Events[i-1].Tick {
			n++
		} else {
			n = 1
		}
		most = max(most, n)
	}
	return &FaultRunner{script: script, due: make([]FaultEvent, 0, most)}
}

// Due returns the events scheduled at or before tick — script events in
// script order, then injected events in push order — advancing both
// cursors. The returned slice is reused by the next call.
func (r *FaultRunner) Due(tick int) []FaultEvent {
	r.due = r.due[:0]
	for r.next < len(r.script.Events) && r.script.Events[r.next].Tick <= tick {
		ev := r.script.Events[r.next]
		r.next++
		r.countEvent(ev)
		r.due = append(r.due, ev)
	}
	kept := r.pushed[:0]
	for _, ev := range r.pushed {
		if ev.Tick <= tick {
			r.countEvent(ev)
			r.due = append(r.due, ev)
		} else {
			kept = append(kept, ev)
		}
	}
	r.pushed = kept
	return r.due
}

// countEvent folds one due event into the per-kind counters.
func (r *FaultRunner) countEvent(ev FaultEvent) {
	switch ev.Kind {
	case FaultCrash:
		bump(&r.stats.Crashes, r.met.Crashes)
	case FaultRepair:
		bump(&r.stats.Repairs, r.met.Repairs)
	case FaultDrainStart:
		bump(&r.stats.DrainsStarted, r.met.DrainsStarted)
	case FaultTakedown:
		bump(&r.stats.Takedowns, r.met.Takedowns)
	case FaultOutageStart:
		bump(&r.stats.OutageStarts, r.met.OutageStarts)
	}
}

// Push injects one externally reported fault event outside the script —
// the serve-mode intake path. The event fires at the first Due call whose
// tick reaches ev.Tick, after any script events due that tick. Pushes
// must happen in a deterministic order for runs to stay bit-identical.
func (r *FaultRunner) Push(ev FaultEvent) {
	r.pushed = append(r.pushed, ev)
}

// RecordEvictions counts n VMs evicted by one fault; forced marks
// drain-deadline evictions.
func (r *FaultRunner) RecordEvictions(n int, forced bool) {
	r.stats.Interruptions += n
	r.met.Interruptions.Add(uint64(n))
	if forced {
		r.stats.ForcedEvictions += n
		r.met.ForcedEvictions.Add(uint64(n))
	}
}

// RecordRehome counts an evicted VM placed again after waiting ticks
// since its eviction.
func (r *FaultRunner) RecordRehome(ticks int) {
	bump(&r.stats.Rehomed, r.met.Rehomed)
	r.stats.RehomeTicksSum += ticks
	r.stats.MaxRehomeTicks = max(r.stats.MaxRehomeTicks, ticks)
}

// RecordShed counts a homeless VM retired by degraded-mode shedding.
func (r *FaultRunner) RecordShed() { bump(&r.stats.Shed, r.met.Shed) }

// ObserveTick closes out one tick: live is the number of active VMs,
// degraded whether the manager is in degraded mode, and homeless how many
// evicted VMs still have no host, each of which accrues a downtime tick.
func (r *FaultRunner) ObserveTick(live int, degraded bool, homeless int) {
	r.stats.VMTicks += live
	if degraded {
		bump(&r.stats.DegradedTicks, r.met.DegradedTicks)
	}
	r.stats.DowntimeTicks += homeless
	r.met.DowntimeTicks.Add(uint64(homeless))
}

// Stats returns the accumulated fault/availability counters.
func (r *FaultRunner) Stats() FaultStats { return r.stats }

// SetMetrics attaches (or, with nil, detaches) the fault counters of the
// lifecycle family; every event is counted the moment FaultStats counts
// it.
func (r *FaultRunner) SetMetrics(m *Metrics) { r.met = held(m) }
