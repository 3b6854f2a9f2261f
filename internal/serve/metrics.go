package serve

import "repro/internal/obs"

// serveMetrics is the service's own loop/journal/retrain families. They
// register on the managed run's registry, next to its engine, scheduler
// and lifecycle families, so /metrics serves all of them. The loop
// goroutine owns all recording except Rejected429 (HTTP handlers,
// atomic) and the GaugeFuncs newLoop registers (scrape-time reads of
// values that are already race-safe: the intake queue and the published
// snapshot's journal position).
type serveMetrics struct {
	reg *obs.Registry

	EventsApplied *obs.Counter
	Accepted      *obs.Counter
	Rejected429   *obs.Counter
	Checkpoints   *obs.Counter

	RetrainKicked  *obs.Counter
	RetrainAdopted *obs.Counter
	RetrainFailed  *obs.Counter

	TickSeconds  *obs.Histogram
	FsyncSeconds *obs.Histogram
}

// newServeMetrics registers the service families and the process runtime
// gauges on r.
func newServeMetrics(r *obs.Registry) *serveMetrics {
	m := &serveMetrics{
		reg: r,
		EventsApplied: r.Counter("mdcsim_serve_events_applied_total",
			"Accepted events folded into the engine at tick barriers."),
		Accepted: r.Counter("mdcsim_serve_events_accepted_total",
			"Events accepted into the intake queue (202)."),
		Rejected429: r.Counter("mdcsim_serve_rejected_429_total",
			"Events refused with 429 because the intake queue was full."),
		Checkpoints: r.Counter("mdcsim_serve_checkpoints_total",
			"Checkpoints written."),
		RetrainKicked: r.Counter("mdcsim_serve_retrain_kicked_total",
			"Background retrain cycles started."),
		RetrainAdopted: r.Counter("mdcsim_serve_retrain_adopted_total",
			"Retrained model bundles adopted at tick barriers."),
		RetrainFailed: r.Counter("mdcsim_serve_retrain_failed_total",
			"Retrain cycles that failed (previous models kept)."),
		TickSeconds: r.Histogram("mdcsim_serve_tick_seconds",
			"Whole tick-barrier wall latency: drain, journal, fsync, execute.",
			nil, obs.WallClock()),
		FsyncSeconds: r.Histogram("mdcsim_serve_wal_fsync_seconds",
			"WAL durability-barrier (Journal.Flush) wall latency.",
			nil, obs.WallClock()),
	}
	obs.RegisterRuntime(r)
	return m
}
