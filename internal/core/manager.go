// Package core glues the reproduction together: the Monitor-Analyze-Plan-
// Execute management loop that drives a simulated multi-DC fleet with a
// scheduler, and the paper's primary contribution — the hierarchical
// two-layer scheduler where each datacenter solves its own placement
// problem and exports only a narrow interface (movable VMs and candidate
// hosts) to the global inter-DC round.
package core

import (
	"fmt"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// ManagerConfig assembles a management loop.
type ManagerConfig struct {
	World     *sim.World
	Scheduler sched.Scheduler
	// RoundTicks is the scheduling period in ticks (paper: every 10 min).
	RoundTicks int
	// Lifecycle drives dynamic VM arrivals and departures through the
	// admission controller (nil = the classic fixed population).
	Lifecycle *lifecycle.Runner
	// Admission gates Lifecycle arrivals. The zero value is the default
	// capacity gate; set Disabled to admit everything.
	Admission AdmissionPolicy
	// Faults replays a fault script: host crashes/repairs, drains and
	// takedowns, DC outages (nil = an immortal fleet).
	Faults *lifecycle.FaultRunner
	// Degraded tunes the capacity-loss response (zero value = defaults).
	Degraded DegradedPolicy
}

// DegradedPolicy is the graceful-degradation contract: when the fleet's
// committed requirements (live VMs + admitted-but-unplaced + evicted VMs
// awaiting re-home) no longer fit in the surviving non-failed, non-
// draining capacity, the manager enters degraded mode — new arrivals are
// deferred without admission (re-homes keep priority for the remaining
// headroom) and, optionally, long-homeless dynamic VMs are shed instead
// of thrashing the deferral queue forever.
type DegradedPolicy struct {
	// ShedAfterTicks retires a dynamic VM that has been homeless that long
	// while the fleet is degraded (0 = never shed; keep deferring).
	ShedAfterTicks int
}

// Manager runs the MAPE loop: observe the world, build the scheduling
// problem, plan with the scheduler, execute the placement, repeat.
type Manager struct {
	cfg    ManagerConfig
	rounds int
	// roundWall sums the wall time spent inside the scheduler's calls;
	// reporting only, it feeds no decision.
	roundWall time.Duration
	// problem, loadBufs and placement are reused across rounds so the
	// steady-state MAPE loop stops allocating a fresh scheduler view (and
	// result map) every 10 minutes.
	problem   sched.Problem
	loadBufs  []model.LoadVector
	placement model.Placement
	// hostedFn is the reusable placement probe handed to the lifecycle
	// runner after each round (built once, no per-round closure).
	hostedFn func(model.VMID) bool
	// pendingCommits ledgers the estimated requirements of admitted VMs
	// that have not reached a host yet: their needs are invisible to the
	// fleet's committed-requirement sum (an unplaced VM requires nothing
	// in truth), but the admission gate must count them or a storm of
	// simultaneous offers would all pass on the same fleet reading. The
	// slice is append-ordered so the sum is bit-deterministic.
	pendingCommits []pendingCommit
	// rehomes ledgers fault-evicted VMs awaiting re-placement: like
	// pendingCommits, their requirements vanish from the fleet's committed
	// sum while unplaced (truth zeroes an unhosted VM), but they were
	// already accepted — admission must reserve their capacity so churn
	// arrivals cannot take it (re-home priority), and they bypass the SLA
	// gate entirely by never re-entering the admission path.
	rehomes []rehomeCommit
	// evicted is failHost's reused list of a failing host's guests.
	evicted []model.VMID
	// degraded mirrors the last stepFaults verdict: committed requirements
	// exceed surviving capacity.
	degraded bool
}

// pendingCommit is one admitted-but-unplaced VM's reserved requirement.
type pendingCommit struct {
	id  model.VMID
	req model.Resources
}

// rehomeCommit is one fault-evicted VM's reserved requirement (captured
// from its last pre-eviction truth) and its eviction tick.
type rehomeCommit struct {
	id        model.VMID
	req       model.Resources
	evictTick int
}

// intoScheduler is the optional allocation-free scheduling contract: the
// manager recycles one placement map across rounds for schedulers that
// support it (the world applies placements without retaining the map).
type intoScheduler interface {
	ScheduleInto(p *sched.Problem, placement model.Placement) error
}

// NewManager validates and builds a manager.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.World == nil {
		return nil, fmt.Errorf("core: World is required")
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("core: Scheduler is required")
	}
	if cfg.RoundTicks <= 0 {
		cfg.RoundTicks = 10
	}
	m := &Manager{cfg: cfg}
	if cfg.Faults != nil {
		// An outage can evict a whole DC at once; sizing the fault
		// buffers for the static population keeps fault ticks from
		// growing them.
		n := cfg.World.Inventory().NumVMs()
		m.rehomes = make([]rehomeCommit, 0, n)
		m.evicted = make([]model.VMID, 0, n)
	}
	return m, nil
}

// Rounds returns how many scheduling rounds have executed.
func (m *Manager) Rounds() int { return m.rounds }

// RoundWall returns the total wall time the scheduler spent planning
// those rounds (Schedule or ScheduleInto calls only).
func (m *Manager) RoundWall() time.Duration { return m.roundWall }

// Degraded reports the last fault-step verdict: committed requirements
// exceed the surviving capacity (always false without a fault runner).
func (m *Manager) Degraded() bool { return m.degraded }

// PendingAdmits is the number of admitted-but-unplaced VMs whose
// requirements the admission ledger currently reserves.
func (m *Manager) PendingAdmits() int { return len(m.pendingCommits) }

// PendingRehomes is the number of fault-evicted VMs awaiting re-placement
// whose requirements the re-home ledger currently reserves.
func (m *Manager) PendingRehomes() int { return len(m.rehomes) }

// BuildProblem assembles the scheduler's view of the world from monitored
// data: gateway load characteristics (with per-source split), queue
// backlogs, window-averaged usage and the current placement. It walks the
// engine's dense index space directly — no per-VM map lookups — and reuses
// the manager's problem storage, so steady-state rounds allocate nothing.
// The returned problem (including every VMInfo.Load) is valid until the
// next BuildProblem call.
func (m *Manager) BuildProblem() *sched.Problem {
	w := m.cfg.World
	obs := w.Observer()
	nDC := w.Topology().NumDCs()
	p := &m.problem
	p.Tick = w.Tick()
	p.VMs = p.VMs[:0]
	p.Hosts = p.Hosts[:0]
	nVM, nPM := w.NumVMs(), w.NumPMs()
	for i := 0; i < nVM; i++ {
		if !w.ActiveVM(i) {
			continue // retired slot under workload churn
		}
		spec := w.VMSpecAt(i)
		info := sched.VMInfo{
			Spec:      spec,
			Current:   model.NoPM,
			CurrentDC: -1,
		}
		if j := w.HostIndexOf(i); j >= 0 {
			host := w.PMSpecAt(j)
			info.Current = host.ID
			info.CurrentDC = host.DC
		}
		// One reusable per-slot load vector: the truth row aliases engine
		// buffers, so it is copied (not referenced) before scaling.
		if len(p.VMs) == len(m.loadBufs) {
			m.loadBufs = append(m.loadBufs, make(model.LoadVector, nDC))
		}
		buf := m.loadBufs[len(p.VMs)]
		if cap(buf) < nDC {
			buf = make(model.LoadVector, nDC)
			m.loadBufs[len(p.VMs)] = buf
		}
		buf = buf[:nDC]
		if truth, ok := w.VMTruthByIndex(i); ok {
			copy(buf, truth.Load)
			info.Load = buf
			info.Total = info.Load.Total()
		} else {
			for s := range buf {
				buf[s] = model.Load{}
			}
			info.Load = buf
		}
		if avg, ok := obs.WindowAvgLoad(i); ok && avg.RPS > 0 {
			// Size against the round-averaged gateway statistics, not one
			// noisy tick; keep the per-source shares of the current vector.
			if info.Total.RPS > 0 {
				k := avg.RPS / info.Total.RPS
				for s := range info.Load {
					info.Load[s] = info.Load[s].Scale(k)
				}
			}
			info.Total = avg
		}
		if s, ok := obs.LastVM(i); ok {
			info.QueueLen = s.QueueLen
		}
		if avg, ok := obs.WindowAvgVM(i); ok {
			info.Observed = avg
			info.HasObserved = true
		}
		p.VMs = append(p.VMs, info)
	}
	for j := 0; j < nPM; j++ {
		if w.IsFailedIndex(j) || w.IsDrainingIndex(j) {
			continue // failed and draining hosts are not candidates
		}
		p.Hosts = append(p.Hosts, sched.HostInfo{Spec: w.PMSpecAt(j)})
	}
	return p
}

// Step advances the world one tick. Event order within the tick: fault
// events land first (crashes and drains must be visible to this tick's
// admission and round), then lifecycle events (departures, then
// admission-gated arrivals), then degraded-mode shedding, then a
// scheduling round whenever the tick index is a round boundary, then the
// fault runner observes re-home outcomes, then the world ticks.
func (m *Manager) Step() (sim.TickSummary, error) {
	w := m.cfg.World
	t := w.Tick()
	if m.cfg.Faults != nil {
		if err := m.stepFaults(t); err != nil {
			return sim.TickSummary{}, err
		}
	}
	if m.cfg.Lifecycle != nil {
		if err := m.stepLifecycle(t); err != nil {
			return sim.TickSummary{}, err
		}
	}
	if m.cfg.Faults != nil && m.degraded && m.cfg.Degraded.ShedAfterTicks > 0 {
		if err := m.stepShedding(t); err != nil {
			return sim.TickSummary{}, err
		}
	}
	// A round with zero candidates (total capacity loss) is skipped, not an
	// error: the fleet keeps ticking — and shedding — until a repair
	// restores candidates.
	if t > 0 && t%m.cfg.RoundTicks == 0 && m.numCandidates() > 0 {
		problem := m.BuildProblem()
		var placement model.Placement
		start := time.Now()
		if is, ok := m.cfg.Scheduler.(intoScheduler); ok {
			if m.placement == nil {
				m.placement = make(model.Placement, len(problem.VMs))
			} else {
				clear(m.placement)
			}
			if err := is.ScheduleInto(problem, m.placement); err != nil {
				return sim.TickSummary{}, fmt.Errorf("core: scheduling round at tick %d: %w", t, err)
			}
			placement = m.placement
		} else {
			var err error
			placement, err = m.cfg.Scheduler.Schedule(problem)
			if err != nil {
				return sim.TickSummary{}, fmt.Errorf("core: scheduling round at tick %d: %w", t, err)
			}
		}
		m.roundWall += time.Since(start)
		if w.NumFailedPMs() > 0 || w.NumDrainingPMs() > 0 {
			// Schedulers that ignore the candidate set (Fixed, replayed
			// placements) may still target unavailable hosts; scrub those
			// assignments rather than abort the run.
			m.sanitizePlacement(placement)
		}
		if err := w.ApplySchedule(placement); err != nil {
			return sim.TickSummary{}, fmt.Errorf("core: applying schedule: %w", err)
		}
		m.rounds++
		if m.cfg.Lifecycle != nil {
			m.cfg.Lifecycle.ObservePlacements(t, m.hosted())
		}
	}
	if m.cfg.Faults != nil {
		m.cfg.Faults.ObserveTick(t, w.NumActiveVMs(), m.degraded, m.hosted())
	}
	return w.Step(), nil
}

// numCandidates counts hosts the scheduler may target. Failed and
// draining are disjoint states (a crash clears the drain flag), so the
// two counters subtract cleanly.
func (m *Manager) numCandidates() int {
	w := m.cfg.World
	return w.Inventory().NumPMs() - w.NumFailedPMs() - w.NumDrainingPMs()
}

// hosted returns the reusable placement probe (built once).
func (m *Manager) hosted() func(model.VMID) bool {
	if m.hostedFn == nil {
		m.hostedFn = func(id model.VMID) bool {
			return m.cfg.World.HostOf(id) != model.NoPM
		}
	}
	return m.hostedFn
}

// sanitizePlacement rewrites placement entries that target failed hosts
// (or move a VM onto a draining host) to the VM's current host when that
// host is still usable, and to NoPM otherwise. Values are rewritten
// per-key with no cross-entry dependence, so map order does not matter.
func (m *Manager) sanitizePlacement(p model.Placement) {
	w := m.cfg.World
	for vm, pm := range p {
		if pm == model.NoPM {
			continue
		}
		cur := w.HostOf(vm)
		if w.IsFailed(pm) || (w.IsDraining(pm) && cur != pm) {
			if cur != model.NoPM && !w.IsFailed(cur) {
				p[vm] = cur // staying put on a draining host is legal
			} else {
				p[vm] = model.NoPM
			}
		}
	}
}

// stepFaults executes the tick's due fault events and refreshes the
// degraded verdict. Crashes and takedowns evict guests into the re-home
// ledger; outages expand to every host of the DC in inventory order.
func (m *Manager) stepFaults(tick int) error {
	fr := m.cfg.Faults
	w := m.cfg.World
	for _, ev := range fr.Due(tick) {
		var err error
		switch ev.Kind {
		case lifecycle.FaultCrash:
			err = m.failHost(tick, ev.PM, false)
		case lifecycle.FaultTakedown:
			err = m.failHost(tick, ev.PM, true)
		case lifecycle.FaultRepair:
			err = w.RecoverPM(ev.PM)
		case lifecycle.FaultDrainStart:
			err = w.DrainPM(ev.PM)
		case lifecycle.FaultOutageStart:
			for _, pm := range w.Inventory().PMsOfDC(ev.DC) {
				if err = m.failHost(tick, pm, false); err != nil {
					break
				}
			}
		case lifecycle.FaultOutageEnd:
			for _, pm := range w.Inventory().PMsOfDC(ev.DC) {
				if err = w.RecoverPM(pm); err != nil {
					break
				}
			}
		}
		if err != nil {
			return fmt.Errorf("core: fault %v at tick %d: %w", ev.Kind, tick, err)
		}
	}

	// Degraded verdict: live requirements plus both unplaced ledgers
	// against the surviving capacity. At the eviction tick itself the
	// victims' last truth still counts them in the committed sum, so the
	// ledger double-counts them for one tick — deliberately conservative;
	// the next world tick zeroes an unhosted VM's requirement.
	fleet := fleetCommitmentOf(w)
	need := fleet.committed.Add(m.prunePendingCommits()).Add(m.pruneRehomes())
	m.degraded = !need.FitsIn(fleet.total)
	return nil
}

// failHost captures a host's guests into the re-home ledger (with their
// last-truth requirements) and fails it. forced marks drain-deadline
// takedowns.
func (m *Manager) failHost(tick int, pm model.PMID, forced bool) error {
	w := m.cfg.World
	m.evicted = w.AppendGuests(m.evicted[:0], pm)
	guests := m.evicted
	for _, id := range guests {
		var req model.Resources
		if truth, ok := w.VMTruthAt(id); ok {
			req = truth.Required
		}
		m.rehomes = append(m.rehomes, rehomeCommit{id: id, req: req, evictTick: tick})
		// The victim moves from the admission ledger (if it was still
		// there) to the re-home ledger; never count it twice.
		m.dropPendingCommit(id)
	}
	if err := w.FailPM(pm); err != nil {
		return err
	}
	if len(guests) > 0 {
		m.cfg.Faults.RecordEvictions(tick, guests, forced)
	}
	return nil
}

// dropPendingCommit removes one VM's admission-ledger entry, if any.
func (m *Manager) dropPendingCommit(id model.VMID) {
	for i := range m.pendingCommits {
		if m.pendingCommits[i].id == id {
			m.pendingCommits = append(m.pendingCommits[:i], m.pendingCommits[i+1:]...)
			return
		}
	}
}

// pruneRehomes drops re-home ledger entries whose VM has a host again or
// has left the world, and returns the remaining reserved total.
func (m *Manager) pruneRehomes() model.Resources {
	w := m.cfg.World
	kept := m.rehomes[:0]
	var sum model.Resources
	for _, rc := range m.rehomes {
		if _, live := w.LookupVM(rc.id); !live {
			continue
		}
		if w.HostOf(rc.id) != model.NoPM {
			continue
		}
		kept = append(kept, rc)
		sum = sum.Add(rc.req)
	}
	m.rehomes = kept
	return sum
}

// stepShedding retires dynamic VMs that have been homeless past the
// shedding deadline while the fleet is degraded: capacity is not coming
// back soon, and holding them in the re-home queue forever just thrashes
// every future round. Static inventory VMs are never shed.
func (m *Manager) stepShedding(tick int) error {
	w := m.cfg.World
	deadline := m.cfg.Degraded.ShedAfterTicks
	kept := m.rehomes[:0]
	for _, rc := range m.rehomes {
		h, live := w.LookupVM(rc.id)
		if !live {
			continue
		}
		if w.IsStatic(h) || w.HostOf(rc.id) != model.NoPM || tick-rc.evictTick < deadline {
			kept = append(kept, rc)
			continue
		}
		if err := w.RetireVM(h); err != nil {
			return fmt.Errorf("core: shedding %v at tick %d: %w", rc.id, tick, err)
		}
		if m.cfg.Lifecycle != nil {
			// The shed VM must not depart a second time at its scheduled
			// lifetime end.
			m.cfg.Lifecycle.CancelDeparture(rc.id)
		}
		m.cfg.Faults.Drop(rc.id)
		m.cfg.Faults.RecordShed()
	}
	m.rehomes = kept
	return nil
}

// stepLifecycle executes the tick's dynamic-workload events: VMs at end
// of lifetime retire, then the admission controller rules on every due
// offer (new arrivals plus the deferral queue). Both queues pop in
// deterministic order, so churn is bit-identical across runs.
func (m *Manager) stepLifecycle(tick int) error {
	lc := m.cfg.Lifecycle
	w := m.cfg.World
	for _, d := range lc.DeparturesDue(tick) {
		if err := w.RetireVM(d.Handle); err != nil {
			return fmt.Errorf("core: retiring %v at tick %d: %w", d.ID, tick, err)
		}
		if m.cfg.Faults != nil {
			// A homeless VM departing at end of lifetime stops accruing
			// downtime; it is not a re-home.
			m.cfg.Faults.Drop(d.ID)
		}
	}
	if m.cfg.Admission.Rate != nil {
		// Refill the token bucket once per tick, before any decision —
		// including ticks with no offers, so idle periods accumulate burst.
		m.cfg.Admission.Rate.Advance(tick)
	}
	offers := lc.Due(tick)
	if len(offers) == 0 {
		return nil
	}
	// Re-home reservations ride in the pending sum: evicted VMs were
	// already accepted, so arrivals compete only for the headroom the
	// re-home queue does not need.
	pending := m.prunePendingCommits().Add(m.pruneRehomes())
	var fleet fleetCommitment
	if !m.cfg.Admission.Disabled {
		fleet = fleetCommitmentOf(w) // once per tick: truth is frozen between Steps
	}
	for _, o := range offers {
		var dec lifecycle.Decision
		var req model.Resources
		if m.degraded && !m.cfg.Admission.Disabled {
			// Degraded mode: committed load already exceeds surviving
			// capacity, so no arrival can be admitted — defer (reject past
			// deadline) without burning a fleet reading.
			dec = m.cfg.Admission.deferOrReject(tick, o)
		} else {
			dec, req = m.cfg.Admission.decide(w, tick, o, fleet, pending)
		}
		var h sim.VMHandle
		if dec == lifecycle.Admit {
			var err error
			if h, err = w.AdmitVM(o.Arrival.Spec); err != nil {
				// Slot pressure the padded bound did not absorb
				// (sim.ErrSlotsExhausted): treat it as a capacity shortage
				// (defer, reject past deadline).
				dec = m.cfg.Admission.deferOrReject(tick, o)
			} else {
				m.pendingCommits = append(m.pendingCommits, pendingCommit{id: o.Arrival.Spec.ID, req: req})
				pending = pending.Add(req)
			}
		}
		lc.Resolve(tick, o, dec, h)
	}
	return nil
}

// prunePendingCommits drops ledger entries whose VM has reached a host
// (its requirement now shows up in the fleet's committed sum) or has
// already departed, and returns the remaining reserved total.
func (m *Manager) prunePendingCommits() model.Resources {
	w := m.cfg.World
	kept := m.pendingCommits[:0]
	var sum model.Resources
	for _, pc := range m.pendingCommits {
		if _, live := w.LookupVM(pc.id); !live {
			continue
		}
		if w.HostOf(pc.id) != model.NoPM {
			continue
		}
		kept = append(kept, pc)
		sum = sum.Add(pc.req)
	}
	m.pendingCommits = kept
	return sum
}

// Run advances n ticks, invoking cb after each.
func (m *Manager) Run(n int, cb func(sim.TickSummary)) error {
	for i := 0; i < n; i++ {
		st, err := m.Step()
		if err != nil {
			return err
		}
		if cb != nil {
			cb(st)
		}
	}
	return nil
}
