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

// Model converts a machine's CPU activity into watts.
type Model interface {
	// Watts returns instantaneous IT power (without cooling) for a machine
	// running the given total CPU load, in percent of one core (0..Cores*100).
	// A powered-off machine is handled by the caller; Watts(0) is the
	// idle-but-on floor.
	Watts(cpuPct float64) float64
	// Cores returns the number of physical cores the curve describes.
	Cores() int
}

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

// Atom is the paper's host power model.
type Atom struct{}

// Cores returns 4.
func (Atom) Cores() int { return 4 }

// Watts interpolates the measured per-core-count points piecewise linearly
// so that fractional core activity (e.g. 150% CPU = 1.5 active cores) has a
// defined, monotone consumption.
func (Atom) Watts(cpuPct float64) float64 {
	return interpolateCurve(AtomCurve[:], cpuPct)
}

// CurveModel is the devirtualisation cache hook for hot loops: models that
// are pure piecewise-linear curves expose their points once, and callers
// evaluate with Interpolate instead of paying an interface dispatch per
// candidate assignment.
type CurveModel interface {
	Model
	// CurvePoints returns the watts-at-k-active-cores points (index 0 =
	// idle-on). Callers must not mutate the returned slice.
	CurvePoints() []float64
}

// CurvePoints implements CurveModel.
func (Atom) CurvePoints() []float64 { return AtomCurve[:] }

// Interpolate evaluates a per-active-core-count curve at the given CPU
// activity — exactly the arithmetic behind Atom.Watts.
func Interpolate(curve []float64, cpuPct float64) float64 {
	return interpolateCurve(curve, cpuPct)
}

func interpolateCurve(curve []float64, cpuPct float64) float64 {
	maxCores := float64(len(curve) - 1)
	cores := cpuPct / 100
	if cores <= 0 {
		return curve[0]
	}
	if cores >= maxCores {
		return curve[len(curve)-1]
	}
	lo := int(cores)
	frac := cores - float64(lo)
	return curve[lo]*(1-frac) + curve[lo+1]*frac
}

// FacilityWatts returns the machine's total draw including cooling overhead
// for a powered-on machine under the given CPU activity. Off machines draw
// nothing; that case belongs to the caller because "off" is a scheduling
// state, not a load level.
func FacilityWatts(m Model, cpuPct float64) float64 {
	return m.Watts(cpuPct) * CoolingFactor
}

// EnergyEUR returns the cost of running one machine at the given facility
// watts for the given number of hours at a location's electricity price.
func EnergyEUR(facilityWatts, hours, eurPerKWh float64) float64 {
	return facilityWatts / 1000 * hours * eurPerKWh
}

var _ CurveModel = Atom{}
