// Package power models the electrical behaviour of the physical machines.
//
// The paper's testbed uses Intel Atom 4-core hosts whose consumption grows
// non-linearly with the number of active cores: 29.1 W with one active core
// and only 30.4, 31.3 and 31.8 W with two, three and four. That shape is the
// entire economic argument for consolidation — two machines at one core each
// burn far more than one machine at two cores — so the curve is reproduced
// here verbatim, together with the paper's cooling rule (one extra watt of
// cooling per two watts of IT load).
package power

// CoolingFactor scales IT watts to facility watts: "for each 2 watts
// consumed by the machine, an extra watt is required for cooling".
const CoolingFactor = 1.5

// AtomCurve is the measured consumption of the paper's Intel Atom 4-core
// hosts, indexed by number of active cores (0 = idle-on).
//
// The idle figure is not printed in the paper; 28.2 W is chosen so that the
// static scenario of Table III (four nearly idle hosts) lands on the
// reported ~175.9 facility watts: 4 x 29.3 x 1.5.
var AtomCurve = [5]float64{28.2, 29.1, 30.4, 31.3, 31.8}

// Watts returns the instantaneous IT power (without cooling) of an Atom
// host running the given total CPU load, in percent of one core
// (0..400). It interpolates AtomCurve piecewise linearly so that
// fractional core activity (e.g. 150% CPU = 1.5 active cores) has a
// defined, monotone consumption. A powered-off machine is handled by the
// caller; Watts(0) is the idle-but-on floor.
func Watts(cpuPct float64) float64 {
	const maxCores = float64(len(AtomCurve) - 1)
	cores := cpuPct / 100
	if cores <= 0 {
		return AtomCurve[0]
	}
	if cores >= maxCores {
		return AtomCurve[len(AtomCurve)-1]
	}
	lo := int(cores)
	frac := cores - float64(lo)
	return AtomCurve[lo]*(1-frac) + AtomCurve[lo+1]*frac
}

// FacilityWatts returns the machine's total draw including cooling overhead
// for a powered-on machine under the given CPU activity. Off machines draw
// nothing; that case belongs to the caller because "off" is a scheduling
// state, not a load level.
func FacilityWatts(cpuPct float64) float64 {
	return Watts(cpuPct) * CoolingFactor
}

// EnergyEUR returns the cost of running one machine at the given facility
// watts for the given number of hours at a location's electricity price.
func EnergyEUR(facilityWatts, hours, eurPerKWh float64) float64 {
	return facilityWatts / 1000 * hours * eurPerKWh
}
