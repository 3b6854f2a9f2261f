package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestMetricsSummaryMeans serves a fixed registry and checks that the
// report labels each latency mean with its own series: the engine tick
// from mdcsim_engine_tick_seconds, the whole tick barrier from
// mdcsim_serve_tick_seconds.
func TestMetricsSummaryMeans(t *testing.T) {
	reg := obs.NewRegistry()
	eng := sim.NewEngineMetrics(reg)
	eng.Ticks.Add(2)
	eng.TickSeconds.Observe(0.002)
	eng.TickSeconds.Observe(0.004)
	barrier := reg.Histogram("mdcsim_serve_tick_seconds", "Tick barrier.", nil, obs.WallClock())
	barrier.Observe(0.010)
	barrier.Observe(0.030)
	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()

	var out strings.Builder
	if err := metricsSummary(&out, strings.TrimPrefix(srv.URL, "http://")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"metrics: engine 2 ticks (mean 3.000ms)",
		"tick barrier mean 20.000ms",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
}
