// Package model defines the shared domain vocabulary of the multi-datacenter
// management system: identifiers, resource vectors, load descriptions and the
// service-level agreement terms that every other package speaks.
//
// The package has no dependencies so that substrates (power, network,
// queueing, ...) and decision makers (sched, core) can share types without
// import cycles.
package model

import (
	"fmt"
	"time"
)

// Tick is the simulation time quantum. The simulator advances in whole
// ticks; the paper's experiments use one-minute ticks with a scheduling
// round every ten minutes over a 24-hour horizon.
const Tick = time.Minute

// TicksPerHour is the number of simulation ticks in one hour.
const TicksPerHour = int(time.Hour / Tick)

// TicksPerDay is the number of simulation ticks in 24 hours.
const TicksPerDay = 24 * TicksPerHour

// VMID identifies a virtual machine (a hosted web-service).
type VMID int

// PMID identifies a physical machine across the whole multi-DC system.
type PMID int

// DCID identifies a datacenter.
type DCID int

// LocationID identifies a geographic client-load source. In the paper each
// datacenter doubles as the ISP access point for the clients of its region,
// so LocationIDs and DCIDs are parallel index spaces.
type LocationID int

// NoPM marks a VM that is not placed on any physical machine.
const NoPM PMID = -1

func (id VMID) String() string { return fmt.Sprintf("vm%d", int(id)) }
func (id PMID) String() string { return fmt.Sprintf("pm%d", int(id)) }
func (id DCID) String() string { return fmt.Sprintf("dc%d", int(id)) }

// Resources is a vector of the three resources the paper's model tracks per
// physical machine: CPU, memory and network bandwidth.
//
// CPU is expressed in percent of one core, so a 4-core Atom offers 400.
// Memory is in megabytes. Bandwidth is in megabits per second.
type Resources struct {
	CPUPct float64 // percent of one core (one core = 100)
	MemMB  float64 // megabytes
	BWMbps float64 // megabits per second
}

// Add returns the element-wise sum r + s.
func (r Resources) Add(s Resources) Resources {
	return Resources{r.CPUPct + s.CPUPct, r.MemMB + s.MemMB, r.BWMbps + s.BWMbps}
}

// Sub returns the element-wise difference r - s.
func (r Resources) Sub(s Resources) Resources {
	return Resources{r.CPUPct - s.CPUPct, r.MemMB - s.MemMB, r.BWMbps - s.BWMbps}
}

// Scale returns r with every component multiplied by k.
func (r Resources) Scale(k float64) Resources {
	return Resources{r.CPUPct * k, r.MemMB * k, r.BWMbps * k}
}

// Max returns the element-wise maximum of r and s.
func (r Resources) Max(s Resources) Resources {
	return Resources{maxF(r.CPUPct, s.CPUPct), maxF(r.MemMB, s.MemMB), maxF(r.BWMbps, s.BWMbps)}
}

// Min returns the element-wise minimum of r and s.
func (r Resources) Min(s Resources) Resources {
	return Resources{minF(r.CPUPct, s.CPUPct), minF(r.MemMB, s.MemMB), minF(r.BWMbps, s.BWMbps)}
}

// FitsIn reports whether r fits within capacity c component-wise.
func (r Resources) FitsIn(c Resources) bool {
	return r.CPUPct <= c.CPUPct && r.MemMB <= c.MemMB && r.BWMbps <= c.BWMbps
}

// NonNegative reports whether every component of r is >= 0.
func (r Resources) NonNegative() bool {
	return r.CPUPct >= 0 && r.MemMB >= 0 && r.BWMbps >= 0
}

// Dominant returns the largest utilisation fraction of r against capacity c,
// the quantity Ordered Best-Fit sorts VMs by ("order_by_demand").
func (r Resources) Dominant(c Resources) float64 {
	d := 0.0
	if c.CPUPct > 0 {
		d = maxF(d, r.CPUPct/c.CPUPct)
	}
	if c.MemMB > 0 {
		d = maxF(d, r.MemMB/c.MemMB)
	}
	if c.BWMbps > 0 {
		d = maxF(d, r.BWMbps/c.BWMbps)
	}
	return d
}

func (r Resources) String() string {
	return fmt.Sprintf("{cpu %.1f%% mem %.0fMB bw %.1fMbps}", r.CPUPct, r.MemMB, r.BWMbps)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Load describes the request stream arriving at one VM from one client
// location during one tick: the per-source triple the paper monitors
// (requests per second, average bytes per request, average no-stress
// computing time per request).
type Load struct {
	RPS        float64 // requests per second
	BytesInReq float64 // average request payload, bytes
	BytesOutRq float64 // average reply payload, bytes
	CPUTimeReq float64 // average no-stress CPU seconds per request
}

// IsZero reports whether the load carries no requests.
func (l Load) IsZero() bool { return l.RPS <= 0 }

// Scale returns l with the request rate multiplied by k; per-request
// characteristics are intensive quantities and do not change.
func (l Load) Scale(k float64) Load {
	l.RPS *= k
	return l
}

// LoadVector is the per-source load seen by one VM in one tick, indexed by
// LocationID.
type LoadVector []Load

// Total aggregates a load vector into a single stream: request rates add,
// per-request characteristics combine as request-weighted means.
func (lv LoadVector) Total() Load {
	var t Load
	for _, l := range lv {
		if l.RPS <= 0 {
			continue
		}
		t.BytesInReq += l.RPS * l.BytesInReq
		t.BytesOutRq += l.RPS * l.BytesOutRq
		t.CPUTimeReq += l.RPS * l.CPUTimeReq
		t.RPS += l.RPS
	}
	if t.RPS > 0 {
		t.BytesInReq /= t.RPS
		t.BytesOutRq /= t.RPS
		t.CPUTimeReq /= t.RPS
	}
	return t
}

// Clone returns a deep copy of the vector.
func (lv LoadVector) Clone() LoadVector {
	out := make(LoadVector, len(lv))
	copy(out, lv)
	return out
}

// DominantSource returns the location contributing the most requests and its
// share of the total request rate. It returns (-1, 0) for an empty vector.
func (lv LoadVector) DominantSource() (LocationID, float64) {
	best, bestRPS, total := LocationID(-1), 0.0, 0.0
	for loc, l := range lv {
		total += l.RPS
		if l.RPS > bestRPS {
			bestRPS = l.RPS
			best = LocationID(loc)
		}
	}
	if total <= 0 {
		return -1, 0
	}
	return best, bestRPS / total
}

// SLATerms captures the contract of Section III-C: full fulfilment up to
// RT0, zero beyond Alpha*RT0, linear in between.
type SLATerms struct {
	RT0   float64 // baseline response time, seconds
	Alpha float64 // tolerance margin (paper: 10)
}

// DefaultSLATerms are the values used throughout the paper's evaluation:
// RT0 = 0.1 s, alpha = 10.
var DefaultSLATerms = SLATerms{RT0: 0.1, Alpha: 10}

// Fulfilment evaluates the piecewise SLA(RT) function of Section III-C.
func (t SLATerms) Fulfilment(rt float64) float64 {
	switch {
	case rt <= t.RT0:
		return 1
	case rt >= t.Alpha*t.RT0:
		return 0
	default:
		return 1 - (rt-t.RT0)/((t.Alpha-1)*t.RT0)
	}
}

// VMSpec is the static description of a virtual machine: its image (for
// migration cost), its memory floor, and its contract.
type VMSpec struct {
	ID          VMID
	Name        string
	ImageSizeGB float64  // VM image size, used for migration duration
	BaseMemMB   float64  // resident memory with zero load
	MaxMemMB    float64  // memory ceiling of the VM container
	Terms       SLATerms // response-time contract
	PriceEURh   float64  // customer price per VM-hour at full SLA
	HomeDC      DCID     // the customer-selected (initial) datacenter
}

// PMSpec is the static description of a physical machine.
type PMSpec struct {
	ID       PMID
	DC       DCID
	Capacity Resources
	Cores    int // number of physical cores (Atom: 4)
}

// Placement maps every VM to the PM hosting it (or NoPM). It is the
// "Schedule[PM,VM]" binary matrix of Figure 3 in sparse form.
type Placement map[VMID]PMID

// Clone returns a copy of the placement.
func (p Placement) Clone() Placement {
	out := make(Placement, len(p))
	for vm, pm := range p {
		out[vm] = pm
	}
	return out
}

// Equal reports whether two placements map the exact same VMs to the exact
// same hosts.
func (p Placement) Equal(q Placement) bool {
	if len(p) != len(q) {
		return false
	}
	for vm, pm := range p {
		if q2, ok := q[vm]; !ok || q2 != pm {
			return false
		}
	}
	return true
}
