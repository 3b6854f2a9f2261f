package sched

import (
	"repro/internal/obs"
)

// Metrics is the scheduler's observability surface, fed once per round
// from the RoundStats ScheduleInto already computes — the counters
// (candidates scored, filled rows, shortlist activity) are
// deterministic, the phase histograms (fill/score/reduce and the whole
// round) are wall-clock and registered as such. The inference-work
// counters (k-NN queries, leaves and points scanned, marginal-watts memo
// hits and misses) are pure functions of the problem too, since every
// round scores serially. They are still marked WallClock, which keeps
// them out of the deterministic snapshot only so that the sweep output
// built from it does not change. Recording is a handful of atomic
// operations, so an instrumented round keeps the steady-state zero-alloc
// contract.
type Metrics struct {
	Rounds           *obs.Counter
	CandidatesScored *obs.Counter
	// RowsReused is never incremented: rounds carry no rows over from the
	// previous round. It stays registered so the exported series and the
	// sweep columns built from it keep their shape.
	RowsReused         *obs.Counter
	RowsRecomputed     *obs.Counter
	ShortlistRebuilds  *obs.Counter
	ShortlistTruncated *obs.Counter
	KNNQueries         *obs.Counter
	KNNLeaves          *obs.Counter
	KNNPoints          *obs.Counter
	EnergyMemoHits     *obs.Counter
	EnergyMemoMisses   *obs.Counter
	RoundSeconds       *obs.Histogram
	FillSeconds        *obs.Histogram
	ScoreSeconds       *obs.Histogram
	ReduceSeconds      *obs.Histogram
}

// NewSchedMetrics registers the scheduling metric family on a registry.
func NewSchedMetrics(r *obs.Registry) *Metrics {
	buckets := obs.ExpBuckets(1e-4, 4, 10) // 100µs .. ~26s
	return &Metrics{
		Rounds: r.Counter("mdcsim_sched_rounds_total",
			"Scheduling rounds executed."),
		CandidatesScored: r.Counter("mdcsim_sched_candidates_scored_total",
			"Per-candidate profit evaluations performed."),
		RowsReused: r.Counter("mdcsim_sched_memo_rows_reused_total",
			"Always 0: rounds reuse no rows from earlier rounds."),
		RowsRecomputed: r.Counter("mdcsim_sched_memo_rows_recomputed_total",
			"VM rows estimated by the table fill (every VM of every round)."),
		ShortlistRebuilds: r.Counter("mdcsim_sched_shortlist_rebuilds_total",
			"Full prune-index rebuilds."),
		ShortlistTruncated: r.Counter("mdcsim_sched_shortlist_truncated_total",
			"Host-state classes dropped by PruneK truncation."),
		KNNQueries: r.Counter("mdcsim_sched_knn_queries_total",
			"SLA k-NN queries answered by scheduling rounds.", obs.WallClock()),
		KNNLeaves: r.Counter("mdcsim_sched_knn_leaves_scanned_total",
			"kd-tree leaves the rounds' k-NN queries scanned.", obs.WallClock()),
		KNNPoints: r.Counter("mdcsim_sched_knn_points_scanned_total",
			"Training points the rounds' k-NN queries compared against.", obs.WallClock()),
		EnergyMemoHits: r.Counter("mdcsim_sched_energy_memo_hits_total",
			"Marginal-watts lookups served by the per-VM memo.", obs.WallClock()),
		EnergyMemoMisses: r.Counter("mdcsim_sched_energy_memo_misses_total",
			"Marginal-watts lookups that ran the PM-CPU model.", obs.WallClock()),
		RoundSeconds: r.Histogram("mdcsim_sched_round_seconds",
			"Whole-round wall latency.", buckets, obs.WallClock()),
		FillSeconds: r.Histogram("mdcsim_sched_fill_seconds",
			"Table-fill phase wall latency.", buckets, obs.WallClock()),
		ScoreSeconds: r.Histogram("mdcsim_sched_score_seconds",
			"Candidate-scoring phase wall latency.", buckets, obs.WallClock()),
		ReduceSeconds: r.Histogram("mdcsim_sched_reduce_seconds",
			"Reduction (argmax/hysteresis/commit) phase wall latency.", buckets, obs.WallClock()),
	}
}

// SetMetrics attaches (or, with nil, detaches) the scheduler's metric
// sinks; every ScheduleInto records its RoundStats into them.
func (b *BestFit) SetMetrics(m *Metrics) { b.met = m }

// record folds one completed round's stats into the sinks.
func (m *Metrics) record(st *RoundStats) {
	m.Rounds.Inc()
	m.CandidatesScored.Add(uint64(st.CandidatesScored))
	m.RowsRecomputed.Add(uint64(st.RowsRecomputed))
	m.ShortlistRebuilds.Add(uint64(st.ShortlistRebuilds))
	m.ShortlistTruncated.Add(uint64(st.ShortlistTruncated))
	m.KNNQueries.Add(uint64(st.KNNQueries))
	m.KNNLeaves.Add(uint64(st.KNNLeaves))
	m.KNNPoints.Add(uint64(st.KNNPoints))
	m.EnergyMemoHits.Add(uint64(st.EnergyMemoHits))
	m.EnergyMemoMisses.Add(uint64(st.EnergyMemoMisses))
	m.RoundSeconds.Observe(float64(st.FillNS+st.ScoreNS+st.ReduceNS) / 1e9)
	m.FillSeconds.Observe(float64(st.FillNS) / 1e9)
	m.ScoreSeconds.Observe(float64(st.ScoreNS) / 1e9)
	m.ReduceSeconds.Observe(float64(st.ReduceNS) / 1e9)
}
