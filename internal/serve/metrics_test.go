package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// scrape fetches and parses the server's /metrics exposition.
func scrape(t *testing.T, base string) map[string]*obs.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("wrong content type %q", ct)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	out := make(map[string]*obs.Family, len(fams))
	for i := range fams {
		out[fams[i].Name] = &fams[i]
	}
	return out
}

func famValue(t *testing.T, fams map[string]*obs.Family, name string) float64 {
	t.Helper()
	f, ok := fams[name]
	if !ok {
		t.Fatalf("metric %s missing from exposition", name)
	}
	v, ok := f.Value()
	if !ok {
		t.Fatalf("metric %s is not a single-value family", name)
	}
	return v
}

// checkLifecycleSeries asserts that every lifecycle and fault series on
// /metrics equals the matching /healthz churn/faults field — the runners
// count both at the same site — and returns the health response.
func checkLifecycleSeries(t *testing.T, c *Client) *healthResponse {
	t.Helper()
	fams := scrape(t, c.Base)
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	ch, f := h.Churn, h.Faults
	for _, s := range []struct {
		series string
		want   int
	}{
		{"mdcsim_lifecycle_offered_total", ch.Offered},
		{"mdcsim_lifecycle_admitted_total", ch.Admitted},
		{"mdcsim_lifecycle_rejected_total", ch.Rejected},
		{"mdcsim_lifecycle_deferrals_total", ch.Deferrals},
		{"mdcsim_lifecycle_departed_total", ch.Departed},
		{"mdcsim_lifecycle_placed_total", ch.Placed},
		{"mdcsim_fault_crashes_total", f.Crashes},
		{"mdcsim_fault_repairs_total", f.Repairs},
		{"mdcsim_fault_drains_started_total", f.DrainsStarted},
		{"mdcsim_fault_takedowns_total", f.Takedowns},
		{"mdcsim_fault_outage_starts_total", f.OutageStarts},
		{"mdcsim_fault_interruptions_total", f.Interruptions},
		{"mdcsim_fault_forced_evictions_total", f.ForcedEvictions},
		{"mdcsim_fault_rehomed_total", f.Rehomed},
		{"mdcsim_fault_shed_total", f.Shed},
		{"mdcsim_fault_downtime_vm_ticks_total", f.DowntimeTicks},
		{"mdcsim_fault_degraded_ticks_total", f.DegradedTicks},
	} {
		if got := famValue(t, fams, s.series); got != float64(s.want) {
			t.Errorf("%s = %v, /healthz says %d", s.series, got, s.want)
		}
	}
	return h
}

// TestServeMetricsEndpoint runs the instrumented service end to end in
// virtual time with a journal: every subsystem family must show up on
// /metrics with values consistent with the work actually done, /healthz
// must report the journal's size and the certified checkpoint, and the
// lifecycle and fault series must match /healthz live and after a
// restore of the same directory.
func TestServeMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, Config{Seed: 11, Dir: dir, TraceSample: 1})

	for i := 0; i < 3; i++ {
		if err := c.Send(offerEv(int64(i+1), fmt.Sprintf("vm-%d", i), i%4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Send(faultEv(4, "crash", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tick(12); err != nil { // crosses at least one round barrier
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	fams := scrape(t, c.Base)
	if got := famValue(t, fams, "mdcsim_engine_ticks_total"); got != 12 {
		t.Fatalf("engine ticks = %v, want 12", got)
	}
	if got := famValue(t, fams, "mdcsim_serve_events_accepted_total"); got != 4 {
		t.Fatalf("accepted = %v, want 4", got)
	}
	if got := famValue(t, fams, "mdcsim_serve_events_applied_total"); got != 4 {
		t.Fatalf("applied = %v, want 4", got)
	}
	if famValue(t, fams, "mdcsim_sched_rounds_total") < 1 {
		t.Fatal("no scheduling round recorded")
	}
	if famValue(t, fams, "mdcsim_lifecycle_offered_total") != 3 {
		t.Fatal("lifecycle offers not counted")
	}
	if famValue(t, fams, "mdcsim_serve_journal_entries") <= 0 ||
		famValue(t, fams, "mdcsim_serve_journal_bytes") <= 0 {
		t.Fatal("journal gauges not populated")
	}
	if got := famValue(t, fams, "mdcsim_serve_last_checkpoint_tick"); got != 12 {
		t.Fatalf("last checkpoint tick = %v, want 12", got)
	}
	if famValue(t, fams, "mdcsim_runtime_goroutines") <= 0 {
		t.Fatal("runtime gauges missing")
	}
	if f, ok := fams["mdcsim_serve_tick_seconds"]; !ok {
		t.Fatal("tick latency histogram missing")
	} else if count, _, ok := f.Histogram(); !ok || count != 12 {
		t.Fatalf("tick latency count = %d, want 12", count)
	}
	if f, ok := fams["mdcsim_serve_wal_fsync_seconds"]; !ok {
		t.Fatal("fsync latency histogram missing")
	} else if count, _, ok := f.Histogram(); !ok || count == 0 {
		t.Fatal("fsync latency never observed")
	}

	h := checkLifecycleSeries(t, c)
	if h.Faults.Crashes != 1 {
		t.Fatalf("healthz crashes = %d, want 1", h.Faults.Crashes)
	}
	if h.JournalEntries <= 0 || h.JournalBytes <= 0 {
		t.Fatalf("healthz journal position empty: %d entries, %d bytes", h.JournalEntries, h.JournalBytes)
	}
	if h.LastCheckpoint != 12 {
		t.Fatalf("healthz last checkpoint = %d, want 12", h.LastCheckpoint)
	}

	// The trace endpoint serves valid Chrome trace JSON holding the tick,
	// fsync and scheduler-phase spans.
	resp, err := http.Get(c.Base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range events {
		if name, ok := e["name"].(string); ok {
			seen[name] = true
		}
	}
	for _, want := range []string{"tick", "wal_fsync", "round_fill", "round_score", "round_reduce"} {
		if !seen[want] {
			t.Fatalf("trace missing %q spans (saw %v)", want, seen)
		}
	}

	// Drain; the shutdown checkpoint advances the certified tick.
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	final := s.Snapshot()
	if final.LastCheckpoint < 12 {
		t.Fatalf("shutdown checkpoint at tick %d, want >= 12", final.LastCheckpoint)
	}

	// A restore replays the journal through the runners, which record
	// the series afresh: they match /healthz, and /healthz matches the
	// run that wrote the journal.
	_, c2 := newTestServer(t, Config{Seed: 11, Dir: dir, Restore: true})
	h2 := checkLifecycleSeries(t, c2)
	if h2.Churn != final.Churn || h2.Faults != final.Faults {
		t.Fatalf("restored churn %+v faults %+v, want %+v %+v", h2.Churn, h2.Faults, final.Churn, final.Faults)
	}
}

// TestServeMetrics429Counter pins the backpressure counter: overflowing
// a depth-2 queue by one shows up as exactly one 429 on /metrics.
func TestServeMetrics429Counter(t *testing.T) {
	_, c := newTestServer(t, Config{Seed: 3, QueueDepth: 2})
	for i := 0; i < 3; i++ {
		rawPost(t, c.Base, "/v1/telemetry", telemetryWire{
			TelemetryReq: TelemetryReq{Name: fmt.Sprintf("t-%d", i), RPS: 1},
		})
	}
	fams := scrape(t, c.Base)
	if got := famValue(t, fams, "mdcsim_serve_rejected_429_total"); got != 1 {
		t.Fatalf("429 counter = %v, want 1", got)
	}
	if got := famValue(t, fams, "mdcsim_serve_events_accepted_total"); got != 2 {
		t.Fatalf("accepted counter = %v, want 2", got)
	}
	if got := famValue(t, fams, "mdcsim_serve_queue_depth"); got != 2 {
		t.Fatalf("queue depth gauge = %v, want 2", got)
	}
}

// TestServeTraceFile: with TracePath set, shutdown writes a loadable
// Chrome trace file.
func TestServeTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	s, c := newTestServer(t, Config{Seed: 9, TraceSample: 1, TracePath: path})
	if _, err := c.Tick(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace file holds no spans")
	}
}

// TestServeMetricsInstrumentationPreservesDeterminism replays the smoke
// script twice — instrumentation and tracing fully on — and requires
// byte-identical placement logs: recording can never perturb placement.
func TestServeMetricsInstrumentationPreservesDeterminism(t *testing.T) {
	run := func() []string {
		_, c := newTestServer(t, Config{Seed: 21, TraceSample: 2})
		lines, err := c.Replay(smokeScript(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return lines
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("log lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("line %d diverges:\n%s\n%s", i, a[i], b[i])
		}
	}
}
