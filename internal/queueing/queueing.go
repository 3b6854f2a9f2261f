// Package queueing provides the response-time model that turns load and
// granted resources into a processing response time — the fRT function of
// constraint (6.1) in the paper's Figure 3.
//
// Web servers under processor sharing are well approximated by an M/G/1-PS
// queue, whose mean sojourn time is service-time/(1-rho). The model adds
// the two degradations the paper's experiments exhibit: memory exhaustion
// (swapping) and network-bandwidth competition, each inflating the response
// time smoothly as the granted resource falls below the requirement.
package queueing

import "math"

// MaxRT caps the modelled response time, matching the observed range of the
// paper's Table I ([0, 19.35] seconds for the learned RT).
const MaxRT = 20.0

// Demand describes one VM's offered work during a tick.
type Demand struct {
	RPS        float64 // arrival rate, requests per second
	CPUTimeReq float64 // no-stress CPU seconds per request
	BytesOutRq float64 // reply size, bytes (drives bandwidth need)
	BytesInReq float64 // request size, bytes
}

// Grant describes the resources the placement actually gives the VM.
type Grant struct {
	CPUPct   float64 // granted CPU, percent of one core
	MemMB    float64 // granted memory
	MemReqMB float64 // memory the VM needs at this load
	BWMbps   float64 // granted bandwidth
	BWReqMbp float64 // bandwidth the VM needs at this load
}

// ServiceCapacityRPS returns how many requests per second the granted CPU
// can serve: grantedCores / cpuTimePerRequest.
func ServiceCapacityRPS(cpuPct, cpuTimeReq float64) float64 {
	if cpuTimeReq <= 0 || cpuPct <= 0 {
		return math.Inf(1)
	}
	return (cpuPct / 100) / cpuTimeReq
}

// ResponseTime returns the expected processing response time in seconds for
// the demand under the grant.
//
// Regimes:
//   - rho < saturation: M/G/1-PS sojourn, serviceTime/(1-rho).
//   - rho >= saturation: overload; the queue grows over the tick, modelled
//     as a response time rising linearly with the excess arrival rate so
//     the decision maker sees increasing (not flat) pain.
//
// Memory or bandwidth deficits multiply the result: a VM at half its
// required memory thrashes, one at half its bandwidth stalls on writes.
func ResponseTime(d Demand, g Grant) float64 {
	if d.RPS <= 0 {
		// No requests: response time is the no-stress floor.
		return d.CPUTimeReq
	}
	service := d.CPUTimeReq
	if service <= 0 {
		service = 1e-4
	}
	mu := ServiceCapacityRPS(g.CPUPct, service)
	var rt float64
	const saturation = 0.97
	switch {
	case math.IsInf(mu, 1):
		rt = service
	case d.RPS < saturation*mu:
		rho := d.RPS / mu
		rt = service / (1 - rho)
	default:
		// Overload: base sojourn at the saturation knee plus a term
		// proportional to the backlog growth rate.
		knee := service / (1 - saturation)
		excess := d.RPS/mu - saturation
		rt = knee + excess*service*200
	}
	rt *= memoryPressureFactor(g.MemMB, g.MemReqMB)
	rt *= bandwidthPressureFactor(g.BWMbps, g.BWReqMbp)
	if rt > MaxRT {
		rt = MaxRT
	}
	if rt < 0 {
		rt = 0
	}
	return rt
}

// memoryPressureFactor inflates RT when granted memory is below required:
// factor 1 at or above requirement, growing quadratically to ~9x at half
// the requirement (swapping cliff).
func memoryPressureFactor(granted, required float64) float64 {
	if required <= 0 || granted >= required {
		return 1
	}
	if granted <= 0 {
		return 16
	}
	deficit := (required - granted) / required // (0, 1]
	return 1 + 32*deficit*deficit
}

// bandwidthPressureFactor inflates RT when the VM's share of the NIC is
// below what its reply traffic needs; linear, gentler than memory.
func bandwidthPressureFactor(granted, required float64) float64 {
	if required <= 0 || granted >= required {
		return 1
	}
	if granted <= 0 {
		return 8
	}
	deficit := (required - granted) / required
	return 1 + 7*deficit
}

// BandwidthNeedMbps converts a request stream into the NIC bandwidth it
// needs, in megabits per second.
func BandwidthNeedMbps(rps, bytesIn, bytesOut float64) float64 {
	return rps * (bytesIn + bytesOut) * 8 / 1e6
}

// CPURequiredPct returns the CPU (percent of one core) needed to serve the
// demand at the target utilisation (e.g. 0.7 keeps RT ~3.3x service time).
func CPURequiredPct(d Demand, targetRho float64) float64 {
	if targetRho <= 0 || targetRho > 1 {
		targetRho = 0.7
	}
	return d.RPS * d.CPUTimeReq * 100 / targetRho
}
