// Intra-DC consolidation (the Figure 4 scenario): one datacenter with four
// Atom hosts and five web-services, comparing the plain monitored Best-Fit
// against the ML-enhanced one over a day. Watch the plain policy freeze on
// one host while the ML policy expands and contracts with the load.
//
//	go run ./examples/intradc
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
	const seed = 21
	fmt.Println("training predictors...")
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

	// Each policy starts from every VM piled onto host 0.
	run := func(name, policy string) {
		sc, err := scenario.Build(scenario.MustPreset(scenario.IntraDC, seed))
		if err != nil {
			log.Fatal(err)
		}
		pol, err := sweep.PolicyByName(policy)
		if err != nil {
			log.Fatal(err)
		}
		pol.Initial = func(sc *scenario.Scenario) model.Placement { return sc.PileOn(0) }
		r, err := sweep.NewManagedRun(sc, pol, bundle, sweep.RunOpts{})
		if err != nil {
			log.Fatal(err)
		}
		var sumSLA, sumW, sumPMs float64
		n := model.TicksPerDay
		if err := r.Manager.Run(n, func(st sim.TickSummary) {
			sumSLA += st.AvgSLA
			sumW += st.FacilityWatts
			sumPMs += float64(st.ActivePMs)
		}); err != nil {
			log.Fatal(err)
		}
		l := sc.World.Ledger()
		fmt.Printf("%-10s avg SLA %.4f | avg %.1f W | avg %.2f PMs | profit %.3f€/day | %d migrations\n",
			name, sumSLA/float64(n), sumW/float64(n), sumPMs/float64(n),
			l.Profit(), sc.World.TotalMigrations())
	}

	fmt.Println("\n24 h on 4 Atom hosts, 5 web-services, round every 10 min:")
	run("BF", "bf")
	run("BF-OB", "bf-ob")
	run("BF+ML", "bf-ml")
	fmt.Println("\nplain BF trusts the capped 10-minute window and stays piled up;")
	fmt.Println("the ML policy anticipates requirements from load and deconsolidates in time.")
}
