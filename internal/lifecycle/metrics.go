package lifecycle

import (
	"repro/internal/obs"
)

// Metrics is the churn and fault counter family. Runner and FaultRunner
// record into it at the site of each event (see their SetMetrics), next
// to the cumulative Stats/FaultStats they keep for derived ratios and
// /healthz, so a counter always equals its Stats field. A runner holds
// the family by value: a detached runner holds the zero Metrics, whose
// nil handles record nothing, so the event paths need no nil checks and
// recording adds a few atomic adds per event and no allocation. All of
// these are deterministic counters — pure functions of the event stream.
type Metrics struct {
	Offered   *obs.Counter
	Admitted  *obs.Counter
	Rejected  *obs.Counter
	Deferrals *obs.Counter
	Departed  *obs.Counter
	Placed    *obs.Counter

	Crashes         *obs.Counter
	Repairs         *obs.Counter
	DrainsStarted   *obs.Counter
	Takedowns       *obs.Counter
	OutageStarts    *obs.Counter
	Interruptions   *obs.Counter
	ForcedEvictions *obs.Counter
	Rehomed         *obs.Counter
	Shed            *obs.Counter
	DowntimeTicks   *obs.Counter
	DegradedTicks   *obs.Counter
}

// NewMetrics registers the lifecycle metric family on a registry.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Offered:   r.Counter("mdcsim_lifecycle_offered_total", "VMs offered for admission."),
		Admitted:  r.Counter("mdcsim_lifecycle_admitted_total", "VMs admitted."),
		Rejected:  r.Counter("mdcsim_lifecycle_rejected_total", "VMs rejected for good."),
		Deferrals: r.Counter("mdcsim_lifecycle_deferrals_total", "Admission deferrals (one VM may defer many times)."),
		Departed:  r.Counter("mdcsim_lifecycle_departed_total", "VMs retired at end of lifetime."),
		Placed:    r.Counter("mdcsim_lifecycle_placed_total", "Admitted VMs that reached a host."),

		Crashes:         r.Counter("mdcsim_fault_crashes_total", "Host crash events."),
		Repairs:         r.Counter("mdcsim_fault_repairs_total", "Host repair events."),
		DrainsStarted:   r.Counter("mdcsim_fault_drains_started_total", "Maintenance drains started."),
		Takedowns:       r.Counter("mdcsim_fault_takedowns_total", "Drained hosts taken down."),
		OutageStarts:    r.Counter("mdcsim_fault_outage_starts_total", "DC outage events."),
		Interruptions:   r.Counter("mdcsim_fault_interruptions_total", "VM evictions caused by faults."),
		ForcedEvictions: r.Counter("mdcsim_fault_forced_evictions_total", "Evictions forced by drain deadlines."),
		Rehomed:         r.Counter("mdcsim_fault_rehomed_total", "Interrupted VMs placed again."),
		Shed:            r.Counter("mdcsim_fault_shed_total", "Homeless VMs retired by degraded-mode shedding."),
		DowntimeTicks:   r.Counter("mdcsim_fault_downtime_vm_ticks_total", "VM-ticks spent homeless after an interruption."),
		DegradedTicks:   r.Counter("mdcsim_fault_degraded_ticks_total", "Ticks spent in degraded mode."),
	}
}

// held is the family a runner keeps for m: a copy, or the zero
// (recording-off) family for nil.
func held(m *Metrics) Metrics {
	if m == nil {
		return Metrics{}
	}
	return *m
}

// bump counts one event in a Stats field and its counter together.
func bump(n *int, c *obs.Counter) {
	*n++
	c.Inc()
}
