// Quickstart: build the paper's four-datacenter world, train the
// predictors on monitored data, and let the ML-enhanced Best-Fit manage
// five web-services for six simulated hours.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	const seed = 7

	// 1. A multi-DC world: Brisbane, Bangaluru, Barcelona, Boston (Table II
	//    prices and latencies), one Atom host per DC, five web-services —
	//    the multi-dc preset, slightly hotter.
	spec := scenario.MustPreset(scenario.MultiDC, seed)
	spec.LoadScale = 1.2
	sc, err := scenario.Build(spec)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train the seven predictors of Table I on monitored harvest runs.
	fmt.Println("training predictors (one simulated day of monitoring)...")
	opts := predict.DefaultHarvestOpts(seed)
	opts.Ticks = model.TicksPerDay
	harvest, err := predict.Collect(opts)
	if err != nil {
		log.Fatal(err)
	}
	bundle, err := predict.Train(harvest, predict.DefaultTrainConfig(seed))
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range bundle.Reports {
		fmt.Printf("  %-7s corr=%.3f\n", rep.Name, rep.Correlation)
	}

	// 3. Wire the management loop: the registry's ML-enhanced Best-Fit
	//    (bf-ml) deciding every 10 minutes over the Figure 3 profit
	//    objective, every VM starting in its home DC.
	pol, err := sweep.PolicyByName("bf-ml")
	if err != nil {
		log.Fatal(err)
	}
	run, err := sweep.NewManagedRun(sc, pol, bundle, sweep.RunOpts{})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run eighteen hours and watch the fleet consolidate and spread.
	fmt.Println("\ntick  SLA    watts  PMs  placement of vm0")
	err = run.Manager.Run(18*model.TicksPerHour, func(st sim.TickSummary) {
		if st.Tick%60 != 0 {
			return
		}
		dc := sc.World.DCOfVM(0)
		fmt.Printf("%4d  %.3f  %5.1f  %d    %s\n",
			st.Tick, st.AvgSLA, st.FacilityWatts, st.ActivePMs, sc.Topology.Name(dc))
	})
	if err != nil {
		log.Fatal(err)
	}

	ledger := sc.World.Ledger()
	fmt.Printf("\n18h summary: revenue %.3f€, energy %.3f€, penalties %.3f€, profit %.3f€ (%d migrations)\n",
		ledger.Revenue(), ledger.EnergyCost(), ledger.Penalties(), ledger.Profit(),
		sc.World.TotalMigrations())
}
