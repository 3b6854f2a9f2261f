package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sweep"
)

// Delocation reproduces the Section V-C "benefit of de-locating load"
// check: a single datacenter receives all the load; in the static variant
// its VMs are pinned there even when it overloads, in the dynamic variant
// the scheduler may temporarily de-locate VMs to remote DCs (paying the
// latency and migration overheads). The paper measures SLA rising from
// 0.8115 to 0.8871 per VM, worth ~0.348 EUR/VM/day.
func Delocation(seed uint64) (*Result, error) {
	// Five VMs all homed in DC 0, load scaled beyond what its single host
	// can serve at peak; three remote DCs with a host each stand by.
	spec := scenario.MustPreset(scenario.Delocation, seed)
	ticks := model.TicksPerDay
	bundle, err := TrainedBundle(seed)
	if err != nil {
		return nil, err
	}
	// Both variants start with everything in the home DC (DC 0's host).
	pile := func(sc *scenario.Scenario) model.Placement { return sc.PileOn(0) }
	static, err := sweep.RunSpec(spec, sweep.Policy{
		Name: "fixed-DC", Initial: pile,
		Make: func(sc *scenario.Scenario, _ *predict.Bundle) (sched.Scheduler, error) {
			return &sched.Fixed{P: pile(sc)}, nil
		},
	}, bundle, ticks, sweep.RunOpts{})
	if err != nil {
		return nil, fmt.Errorf("delocation static: %w", err)
	}
	dynamic, err := sweep.RunSpec(spec, registered("bf-ml", "de-locating", pile), bundle, ticks, sweep.RunOpts{})
	if err != nil {
		return nil, fmt.Errorf("delocation dynamic: %w", err)
	}

	perVMPerDay := (dynamic.ProfitEURh - static.ProfitEURh) * 24 / 5
	res := &Result{Name: "Delocation", Metrics: map[string]float64{
		"slaStatic":     static.AvgSLA,
		"slaDynamic":    dynamic.AvgSLA,
		"benefitPerVMd": perVMPerDay,
	}}
	res.Tables = append(res.Tables, summaryTable(
		"§V-C — benefit of de-locating load (paper: SLA 0.8115 -> 0.8871, +0.348 €/VM/day)",
		[]*sweep.PolicyRun{static, dynamic}))
	res.Notes = append(res.Notes,
		fmt.Sprintf("SLA %.4f -> %.4f, net benefit %.3f €/VM/day",
			static.AvgSLA, dynamic.AvgSLA, perVMPerDay),
		ledgerNote(static), ledgerNote(dynamic))
	return res, nil
}
