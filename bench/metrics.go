package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
)

// Metric kinds. End-to-end metrics are what a user of the system waits
// on or pays for; every workload prints each of them with --trace 0.
// Per-layer metrics break a run's cost down by module; every workload
// prints each of them with --trace 1. Detail metrics are the workload-
// specific latencies and outcomes behind both: they appear in the
// readable report and in -record files, never in the result line.
const (
	kindE2E    = "end_to_end"
	kindLayer  = "per_layer"
	kindDetail = "detail"
)

// metricDef documents one metric: what it measures and, for a per-layer
// metric, which end-to-end metric it should move on which workload.
type metricDef struct {
	Name, Unit, Better, Kind string
	// Workloads lists where a detail metric is measured (end-to-end and
	// per-layer metrics are measured on every workload).
	Workloads []string
	Doc       string
}

const (
	wlHyperscale = "hyperscale-managed"
	wlSweep      = "preset-sweep"
	wlServeLive  = "serve-live"
	wlRestore    = "serve-restore"
)

// metricDefs is the benchmark's metric dictionary. BENCHMARK.json lists
// the end-to-end and per-layer entries; -list and the self-test hold the
// two in agreement.
var metricDefs = []metricDef{
	{"setup_s", "s", "lower", kindE2E, nil,
		"median of 5 set-ups: train the predictor bundle and build the workload's system"},
	{"sim_ticks_per_s", "ticks/s", "higher", kindE2E, nil,
		"simulated ticks per wall second of a pass, the pass timed as the sum of each repeated part's median over passes"},
	{"op_ms_p50", "ms", "lower", kindE2E, nil,
		"median client-timed latency of one call into the program: a Manager.Step, a sweep.Run, an HTTP request, a restore"},
	{"peak_rss_mb", "MB", "lower", kindE2E, nil,
		"peak resident set size of the benchmark process (getrusage)"},

	{"sim.tick_ms", "ms", "lower", kindLayer, nil,
		"mean engine tick (mdcsim_engine_tick_seconds); moves sim_ticks_per_s and op_ms_p50 on hyperscale-managed, sim_ticks_per_s on preset-sweep"},
	{"sim.migrations_per_tick", "count", "lower", kindLayer, nil,
		"VM migrations started per tick (exact); moves sim.tick_ms"},
	{"sched.round_ms", "ms", "lower", kindLayer, nil,
		"mean scheduling round; moves sim_ticks_per_s on hyperscale-managed, little on serve-*"},
	{"sched.fill_ms", "ms", "lower", kindLayer, nil,
		"mean table-fill phase per round (RoundStats); moves sched.round_ms"},
	{"sched.score_ms", "ms", "lower", kindLayer, nil,
		"mean candidate-scoring phase per round; moves sched.round_ms"},
	{"sched.reduce_ms", "ms", "lower", kindLayer, nil,
		"mean reduce phase per round; moves sched.round_ms"},
	{"sched.candidates_per_round", "count", "lower", kindLayer, nil,
		"profit evaluations per round (exact); moves sched.score_ms"},
	{"sched.truncated_per_round", "count", "lower", kindLayer, nil,
		"host-state classes dropped by PruneK per round (exact); the disclosed drift of a pruned round"},
	{"core.glue_ms_per_tick", "ms", "lower", kindLayer, nil,
		"tick time outside the engine tick, the round and the journal flush (Manager.Step glue, serve bookkeeping, sweep cell glue); moves sim_ticks_per_s on preset-sweep and serve-*, op_ms_p50 on hyperscale-managed"},
	{"predict.train_s", "s", "lower", kindLayer, nil,
		"median predictor-bundle training time; moves setup_s on every workload"},
	{"runtime.alloc_kb_per_tick", "KB", "lower", kindLayer, nil,
		"heap bytes allocated per tick in the timed window; moves peak_rss_mb and, through GC, sim_ticks_per_s"},
	{"runtime.mallocs_per_tick", "count", "lower", kindLayer, nil,
		"heap objects allocated per tick in the timed window; moves sim_ticks_per_s on preset-sweep"},
	{"runtime.gc_cycles_per_pass", "count", "lower", kindLayer, nil,
		"GC cycles per pass; moves sim_ticks_per_s"},
	{"runtime.gc_pause_ms_per_pass", "ms", "lower", kindLayer, nil,
		"stop-the-world GC pause per pass; moves op_ms_p50"},
	{"serve.ack_frac", "ratio", "lower", kindLayer, nil,
		"share of the serve client's time in offer, telemetry and fault POSTs (0 off serve-live); moves op_ms_p50 on serve-live"},
	{"serve.barrier_frac", "ratio", "lower", kindLayer, nil,
		"share of the serve client's time in POST /v1/tick (0 off serve-live); moves sim_ticks_per_s on serve-live"},
	{"serve.read_frac", "ratio", "lower", kindLayer, nil,
		"share of the serve client's time in GETs (0 off serve-live); moves sim_ticks_per_s on serve-live"},
	{"serve.wal_flush_frac", "ratio", "lower", kindLayer, nil,
		"share of the loop's tick time in the journal flush (0 off serve-live); moves sim_ticks_per_s on serve-live, not serve-restore"},
	{"serve.barrier_overhead_frac", "ratio", "lower", kindLayer, nil,
		"share of client barrier time outside the loop's tick: HTTP, control channel, encoding (0 off serve-live)"},
	{"serve.barrier_growth", "ratio", "lower", kindLayer, nil,
		"median barrier of the last tenth of a pass over that of the first tenth (0 off serve-live); state that grows with every VM ever offered shows here and in serve-restore's sim_ticks_per_s"},
	{"serve.snapshot_vms", "count", "lower", kindLayer, nil,
		"VMs in the published snapshot at pass end (exact; 0 off serve-*); moves peak_rss_mb and serve.barrier_growth"},
	{"serve.journal_bytes_per_tick", "B", "lower", kindLayer, nil,
		"journal bytes per tick (exact; 0 off serve-*); moves sim_ticks_per_s on serve-restore"},
	{"serve.admit_frac", "ratio", "higher", kindLayer, nil,
		"admitted over offered VMs (exact; 0 off serve-*)"},
	{"serve.journal_read_frac", "ratio", "lower", kindLayer, nil,
		"share of a restore spent in serve.OpenJournal (0 off serve-restore); moves sim_ticks_per_s on serve-restore"},
	{"bench.trace_overhead_frac", "ratio", "lower", kindLayer, nil,
		"median traced pass over median untraced pass, minus 1, in the same run"},

	{"error_frac", "ratio", "lower", kindDetail, nil,
		"failed calls over attempted calls; a failed correctness check fails every call"},
	{"avg_sla", "ratio", "higher", kindDetail, []string{wlHyperscale, wlSweep},
		"mean per-tick AvgSLA (hyperscale-managed) or mean cell AvgSLA (preset-sweep)"},
	{"profit_eur_h", "EUR/h", "higher", kindDetail, []string{wlHyperscale, wlSweep},
		"ledger AvgProfitPerHour (hyperscale-managed) or mean cell ProfitEURh (preset-sweep)"},
	{"round_tick_ms", "ms", "lower", kindDetail, []string{wlHyperscale},
		"median over passes of the mean Step latency on round ticks"},
	{"plain_tick_ms_p50", "ms", "lower", kindDetail, []string{wlHyperscale},
		"pooled Step latency on non-round ticks, median"},
	{"plain_tick_ms_p90", "ms", "lower", kindDetail, []string{wlHyperscale},
		"pooled Step latency on non-round ticks, 90th percentile (needs 100 samples)"},
	{"core.round_self_ms", "ms", "lower", kindDetail, []string{wlHyperscale},
		"round Step minus the schedule call minus the engine tick: BuildProblem, sanitize, ApplySchedule, World adapter"},
	{"core.plain_self_ms", "ms", "lower", kindDetail, []string{wlHyperscale},
		"plain Step minus the engine tick: the World adapter's placement clone and PerDCWatts map"},
	{"sweep.round_ms_total", "ms", "lower", kindDetail, []string{wlSweep},
		"sum over cells of rounds x RoundMS, median pass"},
	{"sweep.engine_ms_total", "ms", "lower", kindDetail, []string{wlSweep},
		"sum over cells of ticks x TickMS, median pass"},
	{"sweep.other_ms_total", "ms", "lower", kindDetail, []string{wlSweep},
		"workers x pass wall minus both sums above, median pass"},
	{"event_ack_ms_p50", "ms", "lower", kindDetail, []string{wlServeLive},
		"offer, telemetry and fault POSTs until 202, median"},
	{"event_ack_ms_p99", "ms", "lower", kindDetail, []string{wlServeLive},
		"offer, telemetry and fault POSTs until 202, 99th percentile"},
	{"barrier_ms_p50", "ms", "lower", kindDetail, []string{wlServeLive},
		"POST /v1/tick, median"},
	{"barrier_ms_p99", "ms", "lower", kindDetail, []string{wlServeLive},
		"POST /v1/tick, 99th percentile"},
	{"query_ms_p50", "ms", "lower", kindDetail, []string{wlServeLive},
		"GETs of every kind in the mix, median"},
	{"serve.ack_offer_ms", "ms", "lower", kindDetail, []string{wlServeLive}, "POST /v1/offers, median"},
	{"serve.ack_telemetry_ms", "ms", "lower", kindDetail, []string{wlServeLive}, "POST /v1/telemetry, median"},
	{"serve.ack_fault_ms", "ms", "lower", kindDetail, []string{wlServeLive}, "POST /v1/faults, median"},
	{"serve.read_vm_ms", "ms", "lower", kindDetail, []string{wlServeLive}, "GET /v1/placements?name=, median"},
	{"serve.read_all_ms", "ms", "lower", kindDetail, []string{wlServeLive}, "GET /v1/placements, median"},
	{"serve.read_health_ms", "ms", "lower", kindDetail, []string{wlServeLive}, "GET /healthz, median"},
	{"serve.read_log_ms", "ms", "lower", kindDetail, []string{wlServeLive}, "GET /v1/log?from=N-100, median"},
	{"serve.loop_tick_ms", "ms", "lower", kindDetail, []string{wlServeLive},
		"mean loop tick barrier (mdcsim_serve_tick_seconds)"},
	{"serve.wal_flush_ms", "ms", "lower", kindDetail, []string{wlServeLive},
		"mean journal flush (mdcsim_serve_wal_fsync_seconds, a bufio flush today)"},
	{"serve.checkpoint_barrier_ms", "ms", "lower", kindDetail, []string{wlServeLive},
		"median POST /v1/tick on ticks that write a checkpoint"},
	{"restore_s", "s", "lower", kindDetail, []string{wlRestore}, "median serve.New with Restore"},
	{"serve.journal_write_s", "s", "lower", kindDetail, []string{wlRestore},
		"wall time of the live run that writes the restored journal"},
	{"serve.journal_read_ms", "ms", "lower", kindDetail, []string{wlRestore},
		"median serve.OpenJournal on a spare copy"},
	{"serve.replay_us_per_entry", "us", "lower", kindDetail, []string{wlRestore},
		"restore minus journal read, per journal entry"},
	{"serve.restore_entries", "count", "lower", kindDetail, []string{wlRestore},
		"journal entries replayed (exact)"},
}

// defByName indexes metricDefs.
func defByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// defsOf returns the names of every metric of one kind, in dictionary
// order.
func defsOf(kind string) []string {
	var out []string
	for _, d := range metricDefs {
		if d.Kind == kind {
			out = append(out, d.Name)
		}
	}
	return out
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWL     `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// loadSpec reads and validates BENCHMARK.json: its shape, and that it
// lists exactly the workloads this program runs and the end-to-end and
// per-layer metrics it emits, with the same units and directions.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) validate() error {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if len(s.Command) == 0 || len(s.Command) > 32 {
		fail("command must have 1 to 32 strings")
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			fail("command part %q is too long or leaves the repository", c)
		}
	}
	if len(s.Paths) == 0 || len(s.Paths) > 16 {
		fail("paths must have 1 to 16 entries")
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			fail("bad path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		fail("run_seconds must be 1..60, got %d", s.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			fail("bad name %q", n)
		}
		if seen[n] {
			fail("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		fail("need 2 to 8 workloads, have %d", len(s.Workloads))
	}
	known := map[string]bool{}
	for name := range workloads {
		known[name] = true
	}
	for _, w := range s.Workloads {
		checkName(w.Name)
		if strings.TrimSpace(w.Why) == "" || strings.ContainsAny(w.Why, "\r\n") || len(w.Why) > 200 {
			fail("workload %q needs a one-line reason of at most 200 characters", w.Name)
		}
		if !known[w.Name] {
			fail("workload %q is not one this benchmark runs", w.Name)
		}
		delete(known, w.Name)
	}
	for name := range known {
		fail("workload %q is run but not listed", name)
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		fail("need 1 to 16 end_to_end metrics")
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		fail("need 1 to 128 per_layer metrics")
	}
	check := func(kind string, ms []specMetric) {
		listed := map[string]bool{}
		for _, m := range ms {
			checkName(m.Name)
			listed[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				fail("metric %q: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				fail("metric %q: better must be lower or higher", m.Name)
			}
			if kind == kindE2E && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
				fail("metric %q: end-to-end bound must be in (0, 0.25]", m.Name)
			}
			if kind == kindLayer && m.Bound != nil {
				fail("metric %q: per-layer metrics have no bound", m.Name)
			}
			d, ok := defByName(m.Name)
			switch {
			case !ok || d.Kind != kind:
				fail("metric %q is not a %s metric of this benchmark", m.Name, kind)
			case d.Unit != m.Unit || d.Better != m.Better:
				fail("metric %q: listed as %s/%s, emitted as %s/%s", m.Name, m.Unit, m.Better, d.Unit, d.Better)
			case d.Doc == "":
				fail("metric %q has no definition", m.Name)
			}
		}
		for _, n := range defsOf(kind) {
			if !listed[n] {
				fail("%s metric %q is emitted but not listed", kind, n)
			}
		}
	}
	check(kindE2E, s.EndToEnd)
	check(kindLayer, s.PerLayer)
	setup := false
	for _, m := range s.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		fail("end_to_end must include setup_s (s, lower)")
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

// bound returns an end-to-end metric's bound (0 when it has none).
func (s *spec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name && m.Bound != nil {
			return *m.Bound
		}
	}
	return 0
}

// printList writes the workloads and metrics of a validated spec, with
// each metric's definition and the end-to-end metric it should move.
func printList(w io.Writer, s *spec) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range s.Workloads {
		fmt.Fprintf(w, "  %-20s %s\n", wl.Name, wl.Why)
	}
	for _, group := range []struct {
		title string
		ms    []specMetric
	}{{"end-to-end metrics (every workload, --trace 0):", s.EndToEnd}, {"per-layer metrics (every workload, --trace 1):", s.PerLayer}} {
		fmt.Fprintln(w, group.title)
		for _, m := range group.ms {
			d, _ := defByName(m.Name)
			b := "-"
			if m.Bound != nil {
				b = fmt.Sprintf("%g", *m.Bound)
			}
			fmt.Fprintf(w, "  %-30s %-8s %-6s bound %-5s %s\n", m.Name, m.Unit, m.Better, b, d.Doc)
		}
	}
	fmt.Fprintln(w, "detail metrics (report and -record only):")
	for _, d := range metricDefs {
		if d.Kind == kindDetail {
			where := "all"
			if d.Workloads != nil {
				where = strings.Join(d.Workloads, ",")
			}
			fmt.Fprintf(w, "  %-30s %-8s %-6s [%s] %s\n", d.Name, d.Unit, d.Better, where, d.Doc)
		}
	}
}
