package core

import (
	"repro/internal/lifecycle"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/sim"
)

// DefaultAdmissionUtil is the fleet-capacity commitment ceiling of the
// capacity gate: new VMs are admitted while the fleet's committed
// requirements plus their expected requirement stay under this fraction
// of the non-failed capacity.
const DefaultAdmissionUtil = 0.85

// AdmissionPolicy is the admission controller gating workload-lifecycle
// arrivals: a capacity gate (defer while the fleet is too full, reject
// once the deferral deadline passes) plus an optional predicted-SLA gate
// (reject arrivals whose contract the fleet could not honour even at a
// full resource grant). The zero value is the plain capacity gate with
// defaults.
type AdmissionPolicy struct {
	// Disabled admits every arrival unconditionally.
	Disabled bool
	// TargetUtil overrides the capacity ceiling (0 = DefaultAdmissionUtil).
	TargetUtil float64
	// MinPredictedSLA enables the SLA gate: arrivals whose predicted
	// fulfilment at full grant in their home DC falls below it are
	// rejected outright. Requires Bundle; 0 disables the gate.
	MinPredictedSLA float64
	// Bundle supplies the learned predictors. When set, the capacity gate
	// sizes arrivals with the ML resource models instead of the operator
	// sizing formula, and the SLA gate becomes available.
	Bundle *predict.Bundle
	// Rate is the optional token-bucket stage in front of every other
	// gate (including Disabled's bypass): arrivals beyond the bucket are
	// deferred — never dropped — until tokens refill or the deferral
	// deadline passes. nil disables rate limiting.
	Rate *RateLimit

	// scratch is the bundle predictions' reusable buffer: deferred offers
	// re-enter admission every tick. Each manager owns its copy of the
	// policy; copy a policy only before its first decision.
	scratch predict.Scratch
}

// targetUtil returns the effective capacity ceiling.
func (p *AdmissionPolicy) targetUtil() float64 {
	if p.TargetUtil > 0 {
		return p.TargetUtil
	}
	return DefaultAdmissionUtil
}

// deferOrReject is the deferral-deadline arm: capacity shortages defer
// until the arrival has waited lifecycle.DefaultMaxDeferTicks since its
// arrival tick, then reject. The deadline is fixed because
// scenario.Build's slot bound and serve's drain bound both assume it.
func (p *AdmissionPolicy) deferOrReject(tick int, o *lifecycle.Offer) lifecycle.Decision {
	if tick-o.Arrival.ArriveTick >= lifecycle.DefaultMaxDeferTicks {
		return lifecycle.Reject
	}
	return lifecycle.Defer
}

// requirement estimates the resources an arrival will need at its offered
// load before any observation of it exists: the learned resource models
// when a bundle is present, the world's operator sizing formula (the same
// queueing arithmetic capacity planning uses) otherwise.
func (p *AdmissionPolicy) requirement(w *sim.World, a *lifecycle.Arrival) model.Resources {
	if p.Bundle != nil {
		return p.Bundle.PredictVMResourcesBuf(&p.scratch, a.Offered, 0)
	}
	return w.RequiredResources(&a.Spec, a.Offered)
}

// fleetCommitment is the capacity gate's per-tick fleet snapshot: the
// surviving (non-failed, non-draining) capacity and the committed
// *requirements* of every live VM
// — not observed usage, because an oversubscribed fleet clamps every
// grant at capacity and looks deceptively idle exactly when it is
// drowning. Truth is frozen between Steps, so the manager computes this
// once per tick and shares it across that tick's offers; intra-tick
// admissions flow through the separate pending parameter.
type fleetCommitment struct {
	total     model.Resources
	committed model.Resources
}

// fleetCommitmentOf snapshots the fleet for one tick of admission
// decisions.
func fleetCommitmentOf(w *sim.World) fleetCommitment {
	var f fleetCommitment
	for j := 0; j < w.NumPMs(); j++ {
		if w.IsFailedIndex(j) || w.IsDrainingIndex(j) {
			// A draining host's capacity is already on its way out; VMs on
			// it still count in committed, so admission plans for the world
			// after the drain completes.
			continue
		}
		f.total = f.total.Add(w.PMSpecAt(j).Capacity)
	}
	for i := 0; i < w.NumVMs(); i++ {
		if !w.ActiveVM(i) {
			continue
		}
		if truth, ok := w.VMTruthByIndex(i); ok {
			f.committed = f.committed.Add(truth.Required)
		}
	}
	return f
}

// decide is the controller: SLA gate first (a permanent property of the
// arrival — deferring would not change it), then the capacity gate over
// the tick's fleet snapshot. pending carries requirements committed
// earlier this tick (or in previous ticks) to VMs that have not reached
// a host yet, so a storm of simultaneous offers cannot all slip through
// on one fleet reading. It returns the decision and the arrival's
// estimated requirement, which AdmitVM reserves in the VM's homeless
// record.
func (p *AdmissionPolicy) decide(w *sim.World, tick int, o *lifecycle.Offer, fleet fleetCommitment, pending model.Resources) (lifecycle.Decision, model.Resources) {
	// Token bucket first — it shapes the intake rate regardless of what
	// the gates behind it would say, so a storm cannot even burn fleet
	// readings. Out of tokens means defer (retry when the bucket refills),
	// not drop.
	if p.Rate != nil && !p.Rate.Take() {
		return p.deferOrReject(tick, o), model.Resources{}
	}
	if p.Disabled {
		return lifecycle.Admit, model.Resources{}
	}
	a := o.Arrival
	req := p.requirement(w, a)

	if p.MinPredictedSLA > 0 && p.Bundle != nil {
		home := a.Spec.HomeDC
		lat := w.Topology().LatencyClientDC(model.LocationID(home), home)
		sla := p.Bundle.PredictSLABuf(&p.scratch, a.Spec.Terms, a.Offered, req.CPUPct, 0, 0, lat)
		if sla < p.MinPredictedSLA {
			return lifecycle.Reject, req
		}
	}

	// What every live VM currently needs plus the still-unplaced
	// commitments plus the newcomer must fit under the ceiling on every
	// resource dimension.
	committed := fleet.committed.Add(pending)
	if committed.Add(req).FitsIn(fleet.total.Scale(p.targetUtil())) {
		return lifecycle.Admit, req
	}
	return p.deferOrReject(tick, o), req
}
