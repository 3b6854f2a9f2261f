// Package sim is the world model: it turns (placement, workload, time) into
// ground-truth resource usage, response times, SLA levels, power draw and
// money. It substitutes for the paper's physical testbed (Atom 4-core hosts
// under VirtualBox/OpenNebula driven by the Li-BCN workload) while keeping
// the behavioural shape the decision problem depends on:
//
//   - VM CPU need grows with request rate and saturates at the grant;
//   - VM memory is linear in load (the paper's MEM model is linear, r=0.994);
//   - PM CPU exceeds the sum of guest CPU (virtualisation overhead), which
//     is why the paper learns a dedicated PM CPU model;
//   - response time follows a processor-sharing queue with memory- and
//     bandwidth-pressure penalties;
//   - migrating VMs answer nothing (SLA 0) for the migration duration;
//   - empty machines are powered off, active ones follow the Atom curve.
//
// The simulation is World (engine.go), a flat, index-based core whose
// tick, World.Step, returns a TickSummary and allocates nothing.
package sim

import (
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/network"
)

// Params are the ground-truth behavioural constants of the simulated fleet.
type Params struct {
	// TargetRho is the utilisation at which a VM's CPU requirement is sized
	// (the requirement constraint 5.1 of Figure 3).
	TargetRho float64
	// MemPerRPS is the linear memory slope in MB per request/second.
	MemPerRPS float64
	// VMBaseCPUPct is the per-VM idle CPU floor in percent of one core.
	VMBaseCPUPct float64
	// VirtBasePct, VirtPerVMPct and VirtFrac shape the PM CPU overhead:
	// pmCPU = sum(vmCPU) + VirtBasePct + VirtPerVMPct*nGuests + VirtFrac*sum(vmCPU).
	VirtBasePct  float64
	VirtPerVMPct float64
	VirtFrac     float64
	// RTNoiseSD is multiplicative noise on the true response time.
	RTNoiseSD float64
	// QueueDecay is the fraction of gateway backlog that drains per tick
	// on top of the capacity surplus (lost/expired requests).
	QueueDecay float64
	// MaxWaitRT caps the backlog-induced waiting time added to the
	// processing RT (seconds).
	MaxWaitRT float64
	// CPUCostFactor multiplies the true CPU cost of every request without
	// changing the gateway-visible request characteristics — a software
	// update making the same requests more expensive. Zero means 1.
	CPUCostFactor float64
}

// cpuCostFactor returns the effective request-cost multiplier.
func (p Params) cpuCostFactor() float64 {
	if p.CPUCostFactor <= 0 {
		return 1
	}
	return p.CPUCostFactor
}

// DefaultParams returns the constants used across the reproduction.
func DefaultParams() Params {
	return Params{
		TargetRho:     0.7,
		MemPerRPS:     3.0,
		VMBaseCPUPct:  3,
		VirtBasePct:   10,
		VirtPerVMPct:  4,
		VirtFrac:      0.06,
		RTNoiseSD:     0.06,
		QueueDecay:    0.1,
		MaxWaitRT:     15,
		CPUCostFactor: 1,
	}
}

// Workload supplies the per-tick load vectors of every VM. The synthetic
// generator (trace.Generator) and the CSV replayer (trace.Replay) both
// implement it.
//
// Fill writes the load vector of vms[i] into dst[i] for every i. Each
// dst[i] is a caller-owned row with one slot per client location that the
// implementation must fully overwrite (zeroing slots it has no data for),
// never grow or retain — the engine reuses the rows across ticks, which is
// what keeps the tick hot path allocation-free. Results must be
// deterministic in tick.
type Workload interface {
	Fill(tick int, vms []model.VMID, dst []model.LoadVector)
}

// Config assembles a world.
type Config struct {
	Inventory *cluster.Inventory
	Topology  *network.Topology
	Generator Workload
	Params    Params
	Noise     monitor.NoiseConfig
	Seed      uint64
	// ExtraVMSlots reserves capacity for dynamically admitted VMs beyond
	// the static inventory population (the workload-lifecycle subsystem's
	// AdmitVM/RetireVM). Every per-VM engine buffer is sized once to
	// inventory + extra, so churn never reallocates the truth slices. Zero
	// keeps the engine fixed-population, bit-identical to its pre-churn
	// behaviour.
	ExtraVMSlots int
	// TickWorkers sets the worker count for the tick's per-DC parallel
	// resolution phase (World.Step). Results are byte-identical at any
	// worker count; <= 1 (the default) runs serially, which is also the
	// allocation-free path — parallel ticks pay goroutine spawns.
	TickWorkers int
}

// VMTruth is the hidden per-VM state of one tick.
type VMTruth struct {
	Load       model.LoadVector
	Total      model.Load
	Required   model.Resources
	Granted    model.Resources
	Used       model.Resources
	RTProcess  float64
	RTBySource []float64
	SLA        float64
	QueueLen   float64
	Migrating  bool
	Host       model.PMID
}

// PMTruth is the hidden per-PM state of one tick.
type PMTruth struct {
	Usage         model.Resources // aggregate incl. virtualisation overhead
	On            bool
	ITWatts       float64
	FacilityWatts float64
	Guests        int
}

// TickSeconds is the tick length in seconds.
const TickSeconds = 60.0

// TickHours is the tick length in hours.
const TickHours = TickSeconds / 3600
