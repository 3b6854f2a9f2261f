// QoS/energy trade-off explorer (the Figure 8 scenario): for a chosen
// service profile, print how much host energy each SLA target costs at
// several load levels — the chart an operator would use to pick an energy
// budget for a desired QoS, or vice versa.
//
//	go run ./examples/tradeoff
package main

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/queueing"
)

func main() {
	terms := model.DefaultSLATerms
	const cpuTimeReq = 0.012 // CPU-seconds per request
	loads := []float64{10, 30, 60, 90, 120}
	targets := []float64{0.80, 0.90, 0.95, 0.99}

	fmt.Println("service: 12 ms/request, SLA contract RT0=0.1s alpha=10")
	fmt.Println("cells: minimum facility watts (Atom host incl. cooling) to reach the target")
	fmt.Printf("%-10s", "SLA target")
	for _, l := range loads {
		fmt.Printf("  %7.0f rps", l)
	}
	fmt.Println()
	for _, tgt := range targets {
		fmt.Printf("%-10.2f", tgt)
		for _, l := range loads {
			watts := minWatts(terms, l, cpuTimeReq, tgt)
			if watts < 0 {
				fmt.Printf("  %11s", "unreachable")
			} else {
				fmt.Printf("  %9.1f W", watts)
			}
		}
		fmt.Println()
	}

	fmt.Println("\nconversely, the SLA an energy budget buys at 60 rps:")
	for _, watts := range []float64{42.5, 43.0, 43.5, 44.0, 45.0, 47.7} {
		grant := grantForWatts(watts)
		rt := queueing.ResponseTime(
			queueing.Demand{RPS: 60, CPUTimeReq: cpuTimeReq},
			queueing.Grant{CPUPct: grant},
		)
		fmt.Printf("  %.1f W -> grant %3.0f%% CPU -> RT %.3fs -> SLA %.3f\n",
			watts, grant, rt, terms.Fulfilment(rt))
	}
}

// minWatts sweeps CPU grants to find the cheapest that meets the target.
func minWatts(terms model.SLATerms, rps, cpuTime, target float64) float64 {
	for grant := 5.0; grant <= 400; grant += 1 {
		rt := queueing.ResponseTime(
			queueing.Demand{RPS: rps, CPUTimeReq: cpuTime},
			queueing.Grant{CPUPct: grant},
		)
		if terms.Fulfilment(rt) >= target {
			return power.FacilityWatts(grant)
		}
	}
	return -1
}

// grantForWatts inverts the Atom facility-power curve by scan.
func grantForWatts(watts float64) float64 {
	best := 0.0
	for grant := 0.0; grant <= 400; grant += 1 {
		if power.FacilityWatts(grant) <= watts {
			best = grant
		}
	}
	return best
}
