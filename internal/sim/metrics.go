package sim

import (
	"repro/internal/obs"
)

// EngineMetrics is the engine's observability surface: per-tick counters
// and fleet gauges recorded at the end of every Step, plus the tick
// latency distribution. All handles are obs primitives whose record
// calls are allocation-free, so an instrumented Step keeps the zero-
// alloc tick contract (TestEngineStepZeroAllocWithMetrics pins it).
//
// Deterministic vs wall-clock: the counters and gauges are pure
// functions of the event stream (safe for reproducible sweep output);
// TickSeconds measures the wall clock and is registered WallClock so
// DeterministicSnapshot excludes it.
type EngineMetrics struct {
	Ticks         *obs.Counter
	Migrations    *obs.Counter
	ActiveVMs     *obs.Gauge
	UnplacedVMs   *obs.Gauge
	ActivePMs     *obs.Gauge
	FailedPMs     *obs.Gauge
	DrainingPMs   *obs.Gauge
	AvgSLA        *obs.Gauge
	FacilityWatts *obs.Gauge
	TickSeconds   *obs.Histogram
}

// NewEngineMetrics registers the engine metric family on a registry.
func NewEngineMetrics(r *obs.Registry) *EngineMetrics {
	return &EngineMetrics{
		Ticks: r.Counter("mdcsim_engine_ticks_total",
			"Engine ticks executed."),
		Migrations: r.Counter("mdcsim_engine_migrations_total",
			"VM migrations started."),
		ActiveVMs: r.Gauge("mdcsim_engine_active_vms",
			"Live VMs after the last tick."),
		UnplacedVMs: r.Gauge("mdcsim_engine_unplaced_vms",
			"Active VMs without a host after the last tick."),
		ActivePMs: r.Gauge("mdcsim_engine_active_pms",
			"Powered-on hosts after the last tick."),
		FailedPMs: r.Gauge("mdcsim_engine_failed_pms",
			"Crashed hosts after the last tick."),
		DrainingPMs: r.Gauge("mdcsim_engine_draining_pms",
			"Hosts draining for maintenance after the last tick."),
		AvgSLA: r.Gauge("mdcsim_engine_avg_sla",
			"Request-weighted fleet SLA fulfilment of the last tick."),
		FacilityWatts: r.Gauge("mdcsim_engine_facility_watts",
			"Facility power draw of the last tick."),
		TickSeconds: r.Histogram("mdcsim_engine_tick_seconds",
			"Engine tick wall latency.", nil, obs.WallClock()),
	}
}

// SetMetrics attaches (or, with nil, detaches) the engine's metric
// sinks. Recording costs a handful of atomic stores per tick and zero
// allocations; with no metrics attached Step does not even read the
// clock.
func (e *World) SetMetrics(m *EngineMetrics) { e.met = m }

// recordTick folds one completed tick into the metric sinks.
func (m *EngineMetrics) recordTick(sum *TickSummary, activeVMs int, sec float64) {
	m.Ticks.Inc()
	m.Migrations.Add(uint64(sum.Migrations))
	m.ActiveVMs.Set(float64(activeVMs))
	m.UnplacedVMs.Set(float64(sum.UnplacedVMs))
	m.ActivePMs.Set(float64(sum.ActivePMs))
	m.FailedPMs.Set(float64(sum.FailedPMs))
	m.DrainingPMs.Set(float64(sum.DrainingPMs))
	m.AvgSLA.Set(sum.AvgSLA)
	m.FacilityWatts.Set(sum.FacilityWatts)
	m.TickSeconds.Observe(sec)
}
