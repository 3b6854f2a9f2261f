package sched

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ml"
	"repro/internal/model"
)

// BestFit is the paper's Descending Best-Fit (Algorithm 1): VMs are
// ordered by decreasing demand and each is assigned to the host with the
// highest tentative profit, updating availability as it goes.
//
// A BestFit instance owns a reusable Round and scratch buffers, so
// steady-state Schedule calls allocate nothing beyond the returned
// placement (ScheduleInto allocates nothing at all). One instance must not
// run concurrent Schedule calls; use one instance per goroutine.
type BestFit struct {
	Cost CostModel
	Est  Estimator
	// MinGainEUR is the hysteresis threshold: a placed VM moves only when
	// the best alternative beats staying by at least this much profit per
	// round. Without it, borderline decisions oscillate every round and
	// the migration blackouts eat the SLA the moves were meant to save.
	MinGainEUR float64
	// Prune scores only the Round's candidate shortlist per VM instead of
	// every host: one representative per distinct tentative host state,
	// plus the VM's current host (see prune.go). With PruneK <= 0 the
	// resulting placement is bit-identical to the exhaustive scan.
	Prune bool
	// PruneK truncates each DC's shortlist to the K tightest feasible host
	// states (plus the emptiest and the first infeasible one). 0 is the
	// safe bound — every distinct state, provably placement-identical;
	// K > 0 trades disclosed divergence (RoundStats.ShortlistTruncated)
	// for bounded per-VM scoring work at fleet scale.
	PruneK int
	// label overrides the reported name (e.g. "bestfit-ml").
	label string

	// Reused session state.
	round      Round
	order      []int
	demand     []float64
	scores     []float64
	sorter     demandSorter
	cands      []int32
	candScores []float64
	stats      RoundStats
	met        *Metrics // optional sinks, fed from stats after each round
}

// RoundStats is the phase instrumentation of one scheduling round: where
// the wall-clock went (table fill, candidate scoring, reduction — argmax,
// hysteresis and commit), how many VM rows the fill estimated, and what
// the candidate shortlist did. The candidate counters are deterministic
// functions of the problem — unlike the wall-clock fields they are safe to
// publish in reproducible sweep output.
type RoundStats struct {
	FillNS   int64
	ScoreNS  int64
	ReduceNS int64
	// RowsRecomputed is the number of VM rows the table fill estimated:
	// every VM of the problem, since each round fills from scratch.
	RowsRecomputed int
	// CandidatesScored is the number of profit evaluations performed
	// (VMs × hosts without pruning; the summed shortlist sizes with it).
	CandidatesScored int
	// ShortlistRebuilds counts full prune-index rebuilds (one per Reset
	// with pruning on; 0 with pruning off).
	ShortlistRebuilds int
	// ShortlistTruncated counts live host-state classes dropped by PruneK
	// truncation — the disclosed divergence from the exhaustive scan.
	// Always 0 when PruneK <= 0.
	ShortlistTruncated int
	// Inference work counted in the round's scratch: SLA k-NN queries
	// and the kd-tree leaves and training points they scanned, and
	// marginal-watts memo lookups served by the memo (hits) or by the
	// PM-CPU model (misses). Scoring is serial, so these are pure
	// functions of the problem, like the candidate counters.
	KNNQueries       int
	KNNLeaves        int
	KNNPoints        int
	EnergyMemoHits   int
	EnergyMemoMisses int
}

// scratchWork is the cumulative inference work counted in a scratch.
type scratchWork struct {
	knn                  ml.KNNWork
	memoHits, memoMisses int64
}

// work reads the inference counts of the round's scratch, which the
// fill and the scoring both run on.
func (b *BestFit) work() scratchWork {
	s := &b.round.scratch
	return scratchWork{s.Predict.KNNWork(), s.eHits, s.eMisses}
}

// LastRoundStats returns the phase breakdown and counters of the last
// Schedule call.
func (b *BestFit) LastRoundStats() RoundStats { return b.stats }

// DefaultMinGainEUR is roughly 10% of one VM's per-round revenue at the
// paper's €0.17/VMh pricing and 10-minute rounds.
const DefaultMinGainEUR = 0.003

// NewBestFit assembles the classic monitored-data Best-Fit.
func NewBestFit(cost CostModel, est Estimator) *BestFit {
	return &BestFit{Cost: cost, Est: est, MinGainEUR: DefaultMinGainEUR, label: "bestfit-" + est.Name()}
}

// Name implements Scheduler.
func (b *BestFit) Name() string {
	if b.label != "" {
		return b.label
	}
	return "bestfit"
}

// Schedule implements Scheduler.
func (b *BestFit) Schedule(p *Problem) (model.Placement, error) {
	placement := make(model.Placement, len(p.VMs))
	if err := b.ScheduleInto(p, placement); err != nil {
		return nil, err
	}
	return placement, nil
}

// Session exposes the round state of the last Schedule call — valid until
// the next call — so composite schedulers can reuse its memoized
// requirement and SLA estimates instead of re-running the estimator.
func (b *BestFit) Session() *Round { return &b.round }

// ScheduleInto is Schedule writing into a caller-provided placement (which
// should arrive empty) — the allocation-free form for callers that recycle
// the map across rounds.
func (b *BestFit) ScheduleInto(p *Problem, placement model.Placement) error {
	if len(p.Hosts) == 0 {
		return fmt.Errorf("sched: no candidate hosts")
	}
	r := &b.round
	r.SetPrune(b.Prune)
	rebuilds0 := r.PruneRebuilds()
	work0 := b.work()
	start := time.Now()
	if err := r.Reset(p, b.Cost, b.Est); err != nil {
		return err
	}
	// order_by_demand(vms, desc): dominant share of the requirement against
	// the first host's capacity as the common yardstick.
	ref := p.Hosts[0].Spec.Capacity
	n := len(p.VMs)
	b.order = grown(b.order, n)
	b.demand = grown(b.demand, n)
	for i := 0; i < n; i++ {
		b.order[i] = i
		b.demand[i] = r.Required(i).Dominant(ref)
	}
	b.sorter.order, b.sorter.demand = b.order, b.demand
	sort.Stable(&b.sorter)

	nh := len(p.Hosts)
	b.scores = grown(b.scores, nh)
	var scoreNS int64
	var scored, truncated int
	for _, i := range b.order {
		t0 := time.Now()
		var best int
		if b.Prune {
			var curPos, trunc int
			b.cands, curPos, trunc = r.AppendCandidates(i, b.PruneK, b.cands[:0])
			truncated += trunc
			nc := len(b.cands)
			scored += nc
			b.candScores = grown(b.candScores, nc)
			for q := 0; q < nc; q++ {
				b.candScores[q] = r.Profit(i, int(b.cands[q]))
			}
			scoreNS += time.Since(t0).Nanoseconds()
			// Argmax with the explicit lower-host-index tie-break — the
			// order-independent equivalent of the exhaustive left-to-right
			// strict-greater scan.
			bp := 0
			for q := 1; q < nc; q++ {
				if b.candScores[q] > b.candScores[bp] ||
					(b.candScores[q] == b.candScores[bp] && b.cands[q] < b.cands[bp]) {
					bp = q
				}
			}
			best = int(b.cands[bp])
			if curPos >= 0 && bp != curPos &&
				b.candScores[bp] < b.candScores[curPos]+b.MinGainEUR {
				best = int(b.cands[curPos])
			}
		} else {
			for j := 0; j < nh; j++ {
				b.scores[j] = r.Profit(i, j)
			}
			scored += nh
			scoreNS += time.Since(t0).Nanoseconds()
			best = 0
			for j := 1; j < nh; j++ {
				if b.scores[j] > b.scores[best] {
					best = j
				}
			}
			// Hysteresis: prefer the current host unless the winner clearly
			// beats it.
			if cur, ok := r.HostIndex(p.VMs[i].Current); ok && best != cur &&
				b.scores[best] < b.scores[cur]+b.MinGainEUR {
				best = cur
			}
		}
		r.Assign(i, best)
		placement[p.VMs[i].Spec.ID] = r.HostID(best)
	}
	fillNS := r.FillNS()
	total := time.Since(start).Nanoseconds()
	work := b.work()
	knn := work.knn.Sub(work0.knn)
	reduceNS := total - fillNS - scoreNS
	if reduceNS < 0 {
		reduceNS = 0
	}
	b.stats = RoundStats{
		FillNS: fillNS, ScoreNS: scoreNS, ReduceNS: reduceNS,
		RowsRecomputed:     n,
		CandidatesScored:   scored,
		ShortlistRebuilds:  r.PruneRebuilds() - rebuilds0,
		ShortlistTruncated: truncated,
		KNNQueries:         int(knn.Queries),
		KNNLeaves:          int(knn.Leaves),
		KNNPoints:          int(knn.Points),
		EnergyMemoHits:     int(work.memoHits - work0.memoHits),
		EnergyMemoMisses:   int(work.memoMisses - work0.memoMisses),
	}
	if b.met != nil {
		b.met.record(&b.stats)
	}
	return nil
}

// demandSorter stable-sorts the order permutation by descending demand
// without the closure allocation of sort.SliceStable (same algorithm, so
// the resulting permutation is identical).
type demandSorter struct {
	order  []int
	demand []float64
}

func (s *demandSorter) Len() int { return len(s.order) }
func (s *demandSorter) Less(a, b int) bool {
	return s.demand[s.order[a]] > s.demand[s.order[b]]
}
func (s *demandSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }

// Fixed always returns the same placement — the "static global multi-DC
// network" baseline of Figure 7, where every VM stays in its customer-
// selected DC and only traffic is redirected.
type Fixed struct {
	P model.Placement
	// AllowUnknown tolerates VMs absent from P — workload-churn arrivals
	// a static placement cannot know about. Unknown VMs keep their
	// current host (never move; unplaced ones stay unplaced), which is
	// exactly the static baseline's weakness the churn experiment
	// measures. Without it an unknown VM is a configuration error.
	AllowUnknown bool
}

// Name implements Scheduler.
func (f *Fixed) Name() string { return "static" }

// Schedule implements Scheduler.
func (f *Fixed) Schedule(p *Problem) (model.Placement, error) {
	out := make(model.Placement, len(p.VMs))
	for i := range p.VMs {
		id := p.VMs[i].Spec.ID
		pm, ok := f.P[id]
		if !ok {
			if f.AllowUnknown {
				if cur := p.VMs[i].Current; cur != model.NoPM {
					out[id] = cur
				}
				continue
			}
			return nil, fmt.Errorf("sched: static placement missing VM %v", id)
		}
		out[id] = pm
	}
	return out, nil
}

var (
	_ Scheduler = (*BestFit)(nil)
	_ Scheduler = (*Fixed)(nil)
)
