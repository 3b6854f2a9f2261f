// Follow-the-sun (the Figure 5 scenario): a single web-service with a
// globally rotating client base, managed by a latency-only Best-Fit. The
// VM should circle the planet once per day, always hosted near whichever
// region is awake.
//
//	go run ./examples/followsun
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	const seed = 5
	// The follow-load preset: one VM, four single-host DCs, a client base
	// rotating with the daylight.
	sc, err := scenario.Build(scenario.MustPreset(scenario.FollowLoad, seed))
	if err != nil {
		log.Fatal(err)
	}
	world := sc.World

	cost := sweep.CostModel(sc)
	cost.LatencyOnly = true // pure follow-the-load, as in Figure 5
	bf := sched.NewBestFit(cost, sched.NewObserved())
	bf.MinGainEUR = 0.0003
	mgr, err := core.NewManager(core.ManagerConfig{World: world, Scheduler: bf})
	if err != nil {
		log.Fatal(err)
	}
	if err := world.PlaceInitial(model.Placement{0: 0}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("48 hours, one line per 2 simulated hours:")
	fmt.Println("UTC-h  hosting DC  dominant clients  colocated")
	err = mgr.Run(2*model.TicksPerDay, func(st sim.TickSummary) {
		if st.Tick%(2*model.TicksPerHour) != 0 {
			return
		}
		dc := world.DCOfVM(0)
		truth, _ := world.VMTruthAt(0)
		dom, share := truth.Load.DominantSource()
		mark := ""
		if model.DCID(dom) == dc {
			mark = "yes"
		}
		fmt.Printf("%5d  %-10s  %-10s %2.0f%%    %s\n",
			st.Tick/model.TicksPerHour, sc.Topology.Name(dc),
			sc.Topology.Name(model.DCID(dom)), share*100, mark)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(strings.Repeat("-", 46))
	fmt.Printf("total inter-DC moves: %d\n", world.TotalMigrations())
}
