package sim_test

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestEngineStepZeroAllocWithMetrics pins the tentpole contract of the
// observability layer: attaching the metric sinks must not cost the tick
// hot path a single allocation. Same setup as the churned-fleet gate,
// plus a live registry recording every tick.
func TestEngineStepZeroAllocWithMetrics(t *testing.T) {
	sc, err := scenario.Build(scenario.MustPreset(scenario.ChurnPoisson, 99))
	if err != nil {
		t.Fatal(err)
	}
	eng := sc.World
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng.SetMetrics(sim.NewEngineMetrics(reg))
	for i := 0; i < 30; i++ { // warmup: monitor rings reach capacity
		eng.Step()
	}
	avg := testing.AllocsPerRun(100, func() { eng.Step() })
	if avg != 0 {
		t.Fatalf("instrumented World.Step allocates %.1f times per tick, want 0", avg)
	}
	// The sinks really recorded: 30 warmup ticks plus the 101 measured
	// ones (AllocsPerRun runs the body n+1 times).
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "mdcsim_engine_ticks_total 131") {
		t.Fatalf("tick counter missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "mdcsim_engine_tick_seconds_count 131") {
		t.Fatalf("tick latency histogram missing:\n%s", out)
	}
}

// TestEngineMetricsParity: recording metrics must not perturb the
// simulation — tick summaries with and without sinks are bit-identical.
func TestEngineMetricsParity(t *testing.T) {
	build := func(instrument bool) []sim.TickSummary {
		sc, err := scenario.Build(scenario.MustPreset(scenario.ChurnPoisson, 7))
		if err != nil {
			t.Fatal(err)
		}
		eng := sc.World
		if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
			t.Fatal(err)
		}
		if instrument {
			eng.SetMetrics(sim.NewEngineMetrics(obs.NewRegistry()))
		}
		out := make([]sim.TickSummary, 0, 50)
		for i := 0; i < 50; i++ {
			out = append(out, eng.Step())
		}
		return out
	}
	plain, inst := build(false), build(true)
	for i := range plain {
		if plain[i] != inst[i] {
			t.Fatalf("tick %d diverges with metrics attached:\n plain %+v\n inst  %+v", i, plain[i], inst[i])
		}
	}
}
