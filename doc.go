// Package repro is a production-quality Go reproduction of Berral,
// Gavaldà and Torres, "Power-aware Multi-DataCenter Management using
// Machine Learning" (ICPP 2013), built entirely on the Go standard
// library.
//
// The decision stack reproduces the paper and its evaluation:
//
//   - internal/sched — the Figure 3 profit objective (SLA revenue −
//     marginal energy − migration penalty) and the Algorithm 1
//     schedulers: Best-Fit, exhaustive, first/worst-fit heuristics, with
//     allocation-free rounds and candidate pruning (host
//     equivalence-class shortlists).
//   - internal/core — the MAPE manager driving monitor → analyze → plan
//     → execute per tick, admission control, fault policy (re-home,
//     degrade, shed) and the hierarchical two-layer scheduler.
//   - internal/predict — the seven Table I datasets and predictor
//     bundle, harvested from monitored runs; online retraining.
//   - internal/ml — M5P model trees, linear regression and k-NN, written
//     from scratch with flat zero-alloc inference.
//
// The simulation substrate stands in for the paper's
// Atom/VirtualBox/OpenNebula testbed:
//
//   - internal/sim — the flat-state World (structure-of-arrays truth,
//     the placement, zero-alloc ticks, per-DC sharded resolution).
//   - internal/cluster — the fleet inventory and fOccupation.
//   - internal/trace — Li-BCN-like workload synthesis and CSV replay.
//   - internal/network — the Table II topology, client latencies and
//     energy-price schedules.
//   - internal/queueing — the processor-sharing response-time model.
//   - internal/power — the Atom power curve, PUE and energy accounting.
//   - internal/sla — SLA(RT), revenue, penalties and the money ledger.
//   - internal/monitor — noisy windowed observations over per-slot ring
//     buffers.
//   - internal/lifecycle — deterministic VM churn and fault scripts
//     (arrivals, departures, crashes, outages, maintenance drains).
//
// Everything above assembles worlds through internal/scenario
// (declarative Spec, named presets from the paper's experiments up to
// the heavy xlarge and hyperscale fleets) and runs studies through
// internal/experiments (one harness per table and figure) and
// internal/sweep (the scenario × policy × seed matrix with
// deterministic JSON/CSV output).
//
// Shared leaves: internal/model (IDs, Resources, Load, Placement),
// internal/rng (named deterministic PCG streams), internal/par (bounded
// parallel helpers), internal/stats (Welford accumulators) and
// internal/report (tables, CSV, series rendering).
//
// The benchmarks in bench_test.go pin the perf baselines committed to
// BENCH_sched.json; see DESIGN.md for the system contracts and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
