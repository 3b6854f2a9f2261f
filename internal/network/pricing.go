package network

import (
	"math"

	"repro/internal/model"
)

// PriceSchedule returns the electricity price (EUR/kWh) ruling at a DC
// during a simulation tick. It implements the paper's future-work item of
// folding green-energy availability into the energy cost: "a 'follow the
// sun/wind' policy could also be introduced easily into the energy cost
// computation".
type PriceSchedule func(dc model.DCID, tick int) float64

// SetPriceSchedule installs or replaces the price schedule after
// construction.
func (t *Topology) SetPriceSchedule(ps PriceSchedule) { t.schedule = ps }

// EnergyPriceAt returns the electricity price at a DC during a tick,
// falling back to the static Table II price when no schedule is set.
func (t *Topology) EnergyPriceAt(dc model.DCID, tick int) float64 {
	if t.schedule != nil {
		return t.schedule(dc, tick)
	}
	return t.prices[dc]
}

// EnergyPricesAt appends the per-DC electricity prices ruling at a tick to
// dst[:0] and returns it — the batch cache hook for decision makers that
// price many candidate assignments against the same tick (one schedule
// call per DC per round instead of one per candidate).
func (t *Topology) EnergyPricesAt(tick int, dst []float64) []float64 {
	dst = dst[:0]
	for dc := range t.prices {
		dst = append(dst, t.EnergyPriceAt(model.DCID(dc), tick))
	}
	return dst
}

// SolarPricing builds a price schedule where each DC's price dips while
// its local sun shines — on-site photovoltaics displacing grid power. The
// dip is strongest at local solar noon and zero at night:
//
//	price(dc, t) = base(dc) * (1 - dip * solar(localHour))
//
// tzOffsetH are the DC timezone offsets in hours; dip in [0, 1] is the
// maximal price reduction (1 = free at solar noon).
func SolarPricing(base []float64, tzOffsetH []float64, dip float64) PriceSchedule {
	if dip < 0 {
		dip = 0
	}
	if dip > 1 {
		dip = 1
	}
	return func(dc model.DCID, tick int) float64 {
		if int(dc) >= len(base) {
			return 0
		}
		tz := 0.0
		if int(dc) < len(tzOffsetH) {
			tz = tzOffsetH[dc]
		}
		hourUTC := float64(tick%model.TicksPerDay) / float64(model.TicksPerHour)
		local := math.Mod(hourUTC+tz+240, 24)
		return base[dc] * (1 - dip*solarIrradiance(local))
	}
}

// solarIrradiance approximates the normalised solar curve: zero before
// 06:00 and after 18:00 local, a sine bump peaking at noon.
func solarIrradiance(localHour float64) float64 {
	if localHour < 6 || localHour > 18 {
		return 0
	}
	return math.Sin((localHour - 6) / 12 * math.Pi)
}
