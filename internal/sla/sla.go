// Package sla implements the business side of the paper's model: the
// SLA(RT) fulfilment function (Section III-C), revenue, migration penalty
// and the profit ledger.
package sla

import "repro/internal/model"

// WeightedFulfilment computes the SLA level of a VM whose clients sit at
// several locations: the per-source fulfilments weighted by each source's
// share of the requests, as prescribed by constraint (7) of Figure 3
// ("weighting the different load sources").
func WeightedFulfilment(t model.SLATerms, rtBySource []float64, loads model.LoadVector) float64 {
	var weighted, total float64
	for i, l := range loads {
		if l.RPS <= 0 || i >= len(rtBySource) {
			continue
		}
		weighted += l.RPS * t.Fulfilment(rtBySource[i])
		total += l.RPS
	}
	if total <= 0 {
		// A VM with no load violates nothing.
		return 1
	}
	return weighted / total
}

// Revenue is frevenue(SLA) for one tick: the customer pays the hourly price
// scaled by the fulfilment level, pro-rated to the tick duration.
func Revenue(priceEURh, fulfilment, hours float64) float64 {
	if fulfilment < 0 {
		fulfilment = 0
	}
	if fulfilment > 1 {
		fulfilment = 1
	}
	return priceEURh * fulfilment * hours
}

// MigrationPenalty is fpenalty(Migr, Migl, ISize): the paper takes the
// pessimistic view that a migrating VM answers nothing, so the penalty is
// the full revenue lost over the expected downtime plus the latency the
// image transfer adds.
func MigrationPenalty(priceEURh, downtimeHours float64) float64 {
	if downtimeHours < 0 {
		downtimeHours = 0
	}
	return priceEURh * downtimeHours
}

// Ledger accumulates the provider's profit components over a run: the
// objective function of Figure 3 integrated over time.
// The zero value is ready to use.
type Ledger struct {
	revenue   float64
	penalties float64
	energy    float64
	ticks     int
}

// AddRevenue folds in SLA revenue earned this tick.
func (l *Ledger) AddRevenue(eur float64) { l.revenue += eur }

// AddPenalty folds in migration penalties incurred this tick.
func (l *Ledger) AddPenalty(eur float64) { l.penalties += eur }

// AddEnergy folds in energy cost paid this tick.
func (l *Ledger) AddEnergy(eur float64) { l.energy += eur }

// Tick marks the end of a simulation tick.
func (l *Ledger) Tick() { l.ticks++ }

// Revenue returns total revenue so far.
func (l *Ledger) Revenue() float64 { return l.revenue }

// Penalties returns total migration penalties so far.
func (l *Ledger) Penalties() float64 { return l.penalties }

// EnergyCost returns total energy cost so far.
func (l *Ledger) EnergyCost() float64 { return l.energy }

// Profit returns revenue - penalties - energy, the paper's objective.
func (l *Ledger) Profit() float64 { return l.revenue - l.penalties - l.energy }

// AvgProfitPerHour returns profit divided by elapsed hours.
func (l *Ledger) AvgProfitPerHour(tickHours float64) float64 {
	if l.ticks == 0 {
		return 0
	}
	return l.Profit() / (float64(l.ticks) * tickHours)
}

// Ticks returns how many ticks have been accounted.
func (l *Ledger) Ticks() int { return l.ticks }
