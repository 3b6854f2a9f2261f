// Command mdcsim runs the reproduction's experiments — one per table or
// figure of the paper — and prints their tables and terminal charts. It
// can also drive any named scenario preset under a managed scheduler,
// sweep the whole scenario × policy × seed matrix in parallel with
// machine-readable output, or run the manager as a long-lived HTTP
// placement service with crash-safe journaling and deterministic replay.
//
// Usage:
//
//	mdcsim -list
//	mdcsim -seed 42 table1 fig4 fig7
//	mdcsim all
//	mdcsim -scenarios
//	mdcsim -scenario hetero-fleet -ticks 720
//	mdcsim sweep -scenarios all -policies bf,bf-ob,bf-ml -seeds 1,2,3 -ticks 240 -out sweep-out
//	mdcsim serve -addr :8080 -dir state/ -tick-every 1s
//	mdcsim serve -replay script.json
//	mdcsim serve -report -addr :8080
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		if err := runSweep(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "mdcsim sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "mdcsim serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	seed := flag.Uint64("seed", 42, "root seed for all stochastic components")
	list := flag.Bool("list", false, "list available experiments and exit")
	listScenarios := flag.Bool("scenarios", false, "list scenario presets and exit")
	scenarioName := flag.String("scenario", "", "run a scenario preset under a managed Best-Fit instead of an experiment")
	ticks := flag.Int("ticks", 24*60, "managed run length in ticks (with -scenario)")
	admitAll := flag.Bool("admit-all", false, "disable the admission controller on churn scenarios (with -scenario)")
	flag.Parse()

	switch {
	case *list:
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return
	case *listScenarios:
		for _, name := range scenario.Names() {
			fmt.Println(name)
		}
		for _, name := range scenario.HeavyNames() {
			fmt.Printf("%s (heavy: excluded from \"all\")\n", name)
		}
		return
	case *scenarioName != "":
		if err := runScenario(os.Stdout, *scenarioName, *seed, *ticks, *admitAll); err != nil {
			fmt.Fprintf(os.Stderr, "mdcsim: %s: %v\n", *scenarioName, err)
			os.Exit(1)
		}
		return
	}

	names := flag.Args()
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "usage: mdcsim [-seed N] <experiment>... | all | sweep [flags] | serve [flags] | -list | -scenarios | -scenario NAME")
		os.Exit(2)
	}
	if len(names) == 1 && names[0] == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		start := time.Now()
		res, err := experiments.Run(name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdcsim: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		fmt.Printf("(%s in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// runSweep drives the sweep subcommand: parse the matrix flags, run every
// (scenario, policy, seed) cell in parallel, print the aggregate table and
// optionally write the machine-readable JSON + CSV.
func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: mdcsim sweep [flags]")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "scenarios: %s\n", strings.Join(scenario.Names(), ", "))
		fmt.Fprintf(fs.Output(), "heavy (by explicit name only): %s\n", strings.Join(scenario.HeavyNames(), ", "))
		fmt.Fprintf(fs.Output(), "policies:  %s\n", strings.Join(sweep.PolicyNames(), ", "))
	}
	scenarios := fs.String("scenarios", "all", "comma-separated scenario presets, or \"all\"")
	policiesF := fs.String("policies", "bf,bf-ob,bf-ml", "comma-separated policy names")
	seedsF := fs.String("seeds", "1,2,3", "comma-separated root seeds, one cell replica per seed")
	ticks := fs.Int("ticks", 240, "simulated length of every cell in ticks (1 tick = 1 min)")
	workers := fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
	out := fs.String("out", "", "directory for sweep.json + cells.csv (empty = print only)")
	cellsToo := fs.Bool("cells", false, "also print the per-cell table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	seeds, err := parseSeeds(*seedsF)
	if err != nil {
		return err
	}
	scenarioList := splitList(*scenarios)
	policyList := splitList(*policiesF)
	// Validate every name up front, reporting all unknowns at once with
	// the full known-name lists — not one bad name at a time, and never
	// after cells have already burned CPU.
	if err := validateNames(scenarioList, policyList); err != nil {
		return err
	}
	m := sweep.Matrix{
		Scenarios: scenarioList,
		Policies:  policyList,
		Seeds:     seeds,
		Ticks:     *ticks,
		Workers:   *workers,
	}
	start := time.Now()
	res, err := sweep.Run(m)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *cellsToo {
		t := res.CellsTable()
		fmt.Println(t.Render())
	}
	fmt.Print(res.Render())
	fmt.Printf("(%d cells in %s)\n", len(res.Cells), elapsed.Round(time.Millisecond))
	if *out != "" {
		jsonPath, csvPath, err := res.WriteFiles(*out)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s and %s\n", jsonPath, csvPath)
	}
	return nil
}

// validateNames checks every -scenarios and -policies entry against the
// registries and reports all unknown names in one error, with the full
// known-name lists (mirroring the scenario.Preset / sweep.PolicyByName
// errors, but before any cell runs).
func validateNames(scenarios, policies []string) error {
	var unknownS, unknownP []string
	for _, name := range scenarios {
		if name == "all" && len(scenarios) == 1 {
			continue // sweep.Run expands "all" only as the sole entry
		}
		if _, err := scenario.Preset(name, 0); err != nil {
			unknownS = append(unknownS, name)
		}
	}
	for _, name := range policies {
		if _, err := sweep.PolicyByName(name); err != nil {
			unknownP = append(unknownP, name)
		}
	}
	if len(unknownS) == 0 && len(unknownP) == 0 {
		return nil
	}
	var b strings.Builder
	if len(unknownS) > 0 {
		fmt.Fprintf(&b, "unknown scenarios %v (have %v, heavy %v)",
			unknownS, scenario.Names(), scenario.HeavyNames())
	}
	if len(unknownP) > 0 {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "unknown policies %v (have %v)", unknownP, sweep.PolicyNames())
	}
	return fmt.Errorf("%s", b.String())
}

// splitList parses a comma-separated flag into trimmed non-empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// parseSeeds parses the -seeds flag.
func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, item := range splitList(s) {
		v, err := strconv.ParseUint(item, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", item, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runScenario drives one preset as a sweep cell of the registry's
// overbooked Best-Fit (bf-ob) and writes an hourly summary plus the
// closing ledger. Churn presets run with the lifecycle event queue and
// the default admission controller (-admit-all disables the gate) and
// report the churn outcome; fault presets report the fault outcome.
func runScenario(w io.Writer, name string, seed uint64, ticks int, admitAll bool) error {
	if ticks <= 0 {
		return fmt.Errorf("-ticks must be positive, got %d", ticks)
	}
	spec, err := scenario.Preset(name, seed)
	if err != nil {
		return err
	}
	pol, err := sweep.PolicyByName("bf-ob")
	if err != nil {
		return err
	}
	makeOB := pol.Make
	pol.Make = func(sc *scenario.Scenario, b *predict.Bundle) (sched.Scheduler, error) {
		s, err := makeOB(sc, b)
		if err != nil {
			return nil, err
		}
		// Fleet-scale presets (hyperscale: 20000 VMs x 5100 PMs) cannot run
		// the exhaustive scoring matrix interactively; bound the round with
		// the truncated candidate shortlist. Truncation is disclosed, and
		// smaller fleets keep the exact exhaustive scan.
		if pairs := len(sc.Inventory.PMs()) * len(sc.Inventory.VMs()); pairs > 1<<22 {
			bf := s.(*sched.BestFit)
			bf.Prune, bf.PruneK = true, 32
			fmt.Fprintf(w, "fleet-scale run (%d VM x PM pairs): candidate pruning on, PruneK 32\n", pairs)
		}
		return s, nil
	}
	var opts sweep.RunOpts
	if admitAll {
		opts.Admission = &core.AdmissionPolicy{Disabled: true}
	}
	var started, churn, faults bool
	opts.OnTick = func(sc *scenario.Scenario, st sim.TickSummary) {
		if !started {
			started, churn, faults = true, sc.Script != nil, sc.Faults != nil
			fmt.Fprintf(w, "scenario %q: %d DCs, %d PMs, %d VMs, %d ticks\n",
				name, sc.Inventory.NumDCs(), sc.Inventory.NumPMs(), len(sc.VMs), ticks)
			if churn {
				fmt.Fprintf(w, "churn: %d scripted arrivals, admission %s\n",
					len(sc.Script.Arrivals), map[bool]string{true: "disabled", false: "capacity gate"}[admitAll])
			}
			if faults {
				fmt.Fprintf(w, "faults: %d scripted events\n", len(sc.Faults.Events))
			}
			fmt.Fprintln(w, "tick  SLA    min    watts    PMs  VMs  migs  profit€")
		}
		if st.Tick%60 == 0 {
			fmt.Fprintf(w, "%4d  %.3f  %.3f  %7.1f  %3d  %3d  %4d  %7.3f\n",
				st.Tick, st.AvgSLA, st.MinSLA, st.FacilityWatts, st.ActivePMs,
				sc.World.NumActiveVMs(), sc.World.TotalMigrations(), st.ProfitEUR)
		}
	}
	run, err := sweep.RunSpec(spec, pol, nil, ticks, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsummary: avg SLA %.4f | avg %.1f W | revenue %.3f€ energy %.3f€ penalties %.3f€ profit %.3f€ | %d migrations\n",
		run.AvgSLA, run.AvgWatts, run.RevenueEUR, run.EnergyEUR, run.PenaltyEUR,
		run.RevenueEUR-run.PenaltyEUR-run.EnergyEUR, run.Migrations)
	if churn {
		fmt.Fprintf(w, "churn: offered %d admitted %d rejected %d deferred %d departed %d | admit rate %.2f | mean time-to-place %.1f ticks\n",
			run.OfferedVMs, run.AdmittedVMs, run.RejectedVMs, int(run.Obs["mdcsim_lifecycle_deferrals_total"]),
			run.DepartedVMs, run.AdmissionRate, run.MeanPlaceTicks)
	}
	if faults {
		fmt.Fprintf(w, "faults: %d crashes %d takedowns %d drains %d outages | %d interruptions (%d forced) | rehomed %d (mean %.1f max %d ticks) shed %d | availability %.4f | degraded %d ticks\n",
			run.Crashes, int(run.Obs["mdcsim_fault_takedowns_total"]),
			int(run.Obs["mdcsim_fault_drains_started_total"]), int(run.Obs["mdcsim_fault_outage_starts_total"]),
			run.Interruptions, run.ForcedEvictions,
			run.RehomedVMs, run.MeanRehomeTicks, run.MaxRehomeTicks, run.ShedVMs,
			run.Availability, run.DegradedTicks)
	}
	return nil
}
