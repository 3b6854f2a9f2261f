package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// testBaseline mirrors the BENCH_sched.json shape with round numbers.
var testBaseline = Baseline{
	NsToleranceFactor: 3,
	Benchmarks: map[string]Metrics{
		"BenchmarkScheduleRound/Small": {NsPerOp: 10_000_000, BytesPerOp: 1000, AllocsPerOp: 5},
		"BenchmarkScheduleRound/Large": {NsPerOp: 250_000_000, BytesPerOp: 7000, AllocsPerOp: 5},
	},
}

const healthyOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkScheduleRound/Small-4         	      20	  11000000 ns/op	     999 B/op	       5 allocs/op
BenchmarkScheduleRound/Large-4         	      20	 260000000 ns/op	    7000 B/op	       5 allocs/op
PASS
ok  	repro	30.1s
`

func parse(t *testing.T, out string) map[string]Metrics {
	t.Helper()
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBenchOutput(t *testing.T) {
	got := parse(t, healthyOutput)
	small, ok := got["BenchmarkScheduleRound/Small"]
	if !ok {
		t.Fatalf("Small missing (GOMAXPROCS suffix not stripped?): %v", got)
	}
	if small.NsPerOp != 11_000_000 || small.BytesPerOp != 999 || small.AllocsPerOp != 5 {
		t.Fatalf("Small = %+v", small)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
}

func TestParseBenchKeepsWorstOfRepeats(t *testing.T) {
	got := parse(t, `
BenchmarkX-4 	10	100 ns/op	50 B/op	2 allocs/op
BenchmarkX-4 	10	300 ns/op	40 B/op	7 allocs/op
BenchmarkX-4 	10	200 ns/op	60 B/op	3 allocs/op
`)
	x := got["BenchmarkX"]
	if x.NsPerOp != 300 || x.BytesPerOp != 60 || x.AllocsPerOp != 7 {
		t.Fatalf("repeats should keep worst per metric, got %+v", x)
	}
}

func TestParseBenchKeepsWorkCounts(t *testing.T) {
	got := parse(t, `
BenchmarkR-2 	10	100 ns/op	7 knn-points/op	3 memo-misses/op	50 B/op	2 allocs/op	4 workers	9 MB/s
BenchmarkR-2 	10	100 ns/op	9 knn-points/op	1 memo-misses/op	50 B/op	2 allocs/op	4 workers	9 MB/s
`)
	want := map[string]float64{"knn-points/op": 9, "memo-misses/op": 3}
	if r := got["BenchmarkR"]; !reflect.DeepEqual(r.Counts, want) || r.AllocsPerOp != 2 {
		t.Fatalf("counts = %v, want %v (worst of repeats, /op units only)", r.Counts, want)
	}
}

// countBaseline records two work counts for one benchmark.
var countBaseline = Baseline{
	Benchmarks: map[string]Metrics{
		"BenchmarkScheduleRound/Hyperscale": {NsPerOp: 400_000_000, BytesPerOp: 600_000, AllocsPerOp: 66,
			Counts: map[string]float64{"knn-points/op": 6_000_000, "knn-queries/op": 61772}},
	},
}

// TestGateCountsAreExact: a recorded work count gates in both directions,
// since a count that falls is as much a change of algorithm as one that
// rises, and a count the bench output no longer reports fails too.
func TestGateCountsAreExact(t *testing.T) {
	line := func(points string, withQueries bool) string {
		l := "BenchmarkScheduleRound/Hyperscale-2 \t10\t400000000 ns/op\t" + points + " knn-points/op\t"
		if withQueries {
			l += "61772 knn-queries/op\t"
		}
		return l + "600000 B/op\t66 allocs/op\n"
	}
	if v := gate(countBaseline, parse(t, line("6000000", true))); len(v) != 0 {
		t.Fatalf("equal counts flagged: %v", v)
	}
	for _, tc := range []struct {
		name, out, want string
	}{
		{"rises", line("19000000", true), "knn-points/op changed: 19000000 != baseline 6000000"},
		{"falls", line("5999999", true), "knn-points/op changed: 5999999 != baseline 6000000"},
		{"missing", line("6000000", false), "knn-queries/op missing"},
	} {
		v := gate(countBaseline, parse(t, tc.out))
		if len(v) != 1 || !strings.Contains(v[0], tc.want) {
			t.Fatalf("count %s: violations %v, want one containing %q", tc.name, v, tc.want)
		}
	}
}

func TestGatePassesHealthyRun(t *testing.T) {
	if v := gate(testBaseline, parse(t, healthyOutput)); len(v) != 0 {
		t.Fatalf("healthy run flagged: %v", v)
	}
}

// TestGateFailsOnAllocRegression is the contract the CI job relies on:
// one extra allocation per op in a gated hot path must fail the build.
func TestGateFailsOnAllocRegression(t *testing.T) {
	regressed := strings.Replace(healthyOutput,
		"     999 B/op	       5 allocs/op",
		"     999 B/op	       6 allocs/op", 1)
	v := gate(testBaseline, parse(t, regressed))
	if len(v) != 1 {
		t.Fatalf("alloc regression not caught: %v", v)
	}
	if !strings.Contains(v[0], "Small") || !strings.Contains(v[0], "allocs/op regressed") {
		t.Fatalf("wrong violation: %q", v[0])
	}
}

func TestGateToleratesNsNoiseButNotBlowup(t *testing.T) {
	// 2.9x the baseline: inside the 3x tolerance.
	noisy := strings.Replace(healthyOutput, "  11000000 ns/op", "  29000000 ns/op", 1)
	if v := gate(testBaseline, parse(t, noisy)); len(v) != 0 {
		t.Fatalf("2.9x ns flagged despite 3x tolerance: %v", v)
	}
	// 4x the baseline: a real regression.
	slow := strings.Replace(healthyOutput, "  11000000 ns/op", "  40000000 ns/op", 1)
	v := gate(testBaseline, parse(t, slow))
	if len(v) != 1 || !strings.Contains(v[0], "ns/op regressed") {
		t.Fatalf("4x ns not caught: %v", v)
	}
}

func TestGateFailsOnBytesBlowup(t *testing.T) {
	// 999 -> 1400 B/op: inside the 1.5x tolerance (baseline 1000).
	wobble := strings.Replace(healthyOutput, "     999 B/op", "    1400 B/op", 1)
	if v := gate(testBaseline, parse(t, wobble)); len(v) != 0 {
		t.Fatalf("B/op wobble flagged despite 1.5x tolerance: %v", v)
	}
	// Same alloc count but 60x the bytes: a real memory regression.
	fat := strings.Replace(healthyOutput, "     999 B/op", "   60000 B/op", 1)
	v := gate(testBaseline, parse(t, fat))
	if len(v) != 1 || !strings.Contains(v[0], "B/op regressed") {
		t.Fatalf("B/op blow-up not caught: %v", v)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	onlySmall := strings.Join(strings.Split(healthyOutput, "\n")[:5], "\n")
	v := gate(testBaseline, parse(t, onlySmall))
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("missing benchmark not caught: %v", v)
	}
}

// TestRunFailsOnEmptyBenchOutput is the broken-bench-step contract: output
// with no benchmark lines at all (crashed run, -bench pattern matching
// nothing) must exit non-zero with a clear message, never pass vacuously.
func TestRunFailsOnEmptyBenchOutput(t *testing.T) {
	baselinePath := filepath.Join("..", "..", "BENCH_sched.json")
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("PASS\nok  \trepro\t0.1s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run(baselinePath, empty, false, &out, &errOut); code != 2 {
		t.Fatalf("empty bench output exited %d, want 2 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "no benchmarks found") {
		t.Fatalf("missing clear message: %q", errOut.String())
	}
}

// TestRunWarnsOnUnbaselinedBenchmark: a measured benchmark the baseline
// does not know cannot regress the gate, so the run must call it out.
func TestRunWarnsOnUnbaselinedBenchmark(t *testing.T) {
	extra := healthyOutput +
		"BenchmarkScheduleRound/XXL-4 \t20\t900000000 ns/op\t50000 B/op\t9 allocs/op\n"
	got := parse(t, extra)
	if names := unbaselined(testBaseline, got); len(names) != 1 || names[0] != "BenchmarkScheduleRound/XXL" {
		t.Fatalf("unbaselined = %v", names)
	}
	file := filepath.Join(t.TempDir(), "extra.txt")
	if err := os.WriteFile(file, []byte(extra), 0o644); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base.json")
	raw, err := json.Marshal(testBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run(base, file, false, &out, &errOut); code != 0 {
		t.Fatalf("unbaselined benchmark must warn, not fail: exit %d (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "warn") || !strings.Contains(errOut.String(), "XXL") {
		t.Fatalf("missing warning: %q", errOut.String())
	}
}

func TestGateDefaultTolerance(t *testing.T) {
	base := testBaseline
	base.NsToleranceFactor = 0 // default 3 kicks in
	slow := strings.Replace(healthyOutput, "  11000000 ns/op", "  40000000 ns/op", 1)
	if v := gate(base, parse(t, slow)); len(v) != 1 {
		t.Fatalf("default tolerance not applied: %v", v)
	}
}

// TestRunAgainstCommittedBaseline runs the whole tool (load, parse, gate,
// exit code) against the real committed BENCH_sched.json: a fabricated
// allocs/op regression must produce exit code 1, and numbers matching the
// committed baseline must pass — so a broken baseline file fails here, in
// CI, not silently in the workflow.
func TestRunAgainstCommittedBaseline(t *testing.T) {
	baselinePath := filepath.Join("..", "..", "BENCH_sched.json")
	base, err := loadBaseline(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	var ok, bad strings.Builder
	for name, m := range base.Benchmarks {
		ok.WriteString(name + "-4 \t20\t" +
			formatLine(m, m.AllocsPerOp) + "\n")
		bad.WriteString(name + "-4 \t20\t" +
			formatLine(m, m.AllocsPerOp+1) + "\n")
	}
	okFile := filepath.Join(t.TempDir(), "ok.txt")
	if err := os.WriteFile(okFile, []byte(ok.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	badFile := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(badFile, []byte(bad.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run(baselinePath, okFile, false, &out, &errOut); code != 0 {
		t.Fatalf("baseline-equal run failed with code %d: %s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run(baselinePath, badFile, false, &out, &errOut); code != 1 {
		t.Fatalf("allocs regression exited %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "allocs/op regressed") {
		t.Fatalf("missing violation message: %s", errOut.String())
	}
}

// TestUpdateRewritesBenchmarksBlock is the -update contract: measured
// benchmarks replace their baseline entries, new ones join the gate,
// unmeasured entries survive untouched, and everything else in the file
// (description, machine, tolerances, history, notes) round-trips
// verbatim through a loadBaseline of the rewritten file.
func TestUpdateRewritesBenchmarksBlock(t *testing.T) {
	base := Baseline{
		Description:          "perf contract",
		Machine:              "test rig",
		NsToleranceFactor:    3,
		BytesToleranceFactor: 1.5,
		Benchmarks: map[string]Metrics{
			"BenchmarkScheduleRound/Small": {NsPerOp: 10_000_000, BytesPerOp: 1000, AllocsPerOp: 5},
			"BenchmarkChurn/Step":          {NsPerOp: 30_000, BytesPerOp: 0, AllocsPerOp: 0},
		},
		History: map[string]map[string]Metrics{
			"pr2": {"BenchmarkScheduleRound/Small": {NsPerOp: 24_000_000, BytesPerOp: 424144, AllocsPerOp: 12173}},
		},
		Notes: "hot-path profile notes",
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, renderBaseline(base), 0o644); err != nil {
		t.Fatal(err)
	}
	bench := "BenchmarkScheduleRound/Small-4 \t20\t9000000 ns/op\t97 knn-points/op\t900 B/op\t4 allocs/op\n" +
		"BenchmarkSLAQuery/Batch-4 \t20\t2500000 ns/op\t0 B/op\t0 allocs/op\n"
	benchFile := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(benchFile, []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run(path, benchFile, true, &out, &errOut); code != 0 {
		t.Fatalf("-update exited %d (stderr: %s)", code, errOut.String())
	}
	got, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if m := got.Benchmarks["BenchmarkScheduleRound/Small"]; m.NsPerOp != 9_000_000 || m.BytesPerOp != 900 || m.AllocsPerOp != 4 ||
		m.Counts["knn-points/op"] != 97 {
		t.Fatalf("measured entry not replaced: %+v", m)
	}
	if m, ok := got.Benchmarks["BenchmarkSLAQuery/Batch"]; !ok || m.NsPerOp != 2_500_000 {
		t.Fatalf("new benchmark not added: %+v (ok=%v)", m, ok)
	}
	if m := got.Benchmarks["BenchmarkChurn/Step"]; m.NsPerOp != 30_000 {
		t.Fatalf("unmeasured entry not preserved: %+v", m)
	}
	if got.Description != base.Description || got.Machine != base.Machine ||
		got.NsToleranceFactor != 3 || got.BytesToleranceFactor != 1.5 || got.Notes != base.Notes {
		t.Fatalf("metadata not preserved: %+v", got)
	}
	if h := got.History["pr2"]["BenchmarkScheduleRound/Small"]; h.AllocsPerOp != 12173 {
		t.Fatalf("history not preserved: %+v", got.History)
	}
	if !strings.Contains(out.String(), "updated BenchmarkScheduleRound/Small") ||
		!strings.Contains(out.String(), "added BenchmarkSLAQuery/Batch") {
		t.Fatalf("missing update report: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "BenchmarkChurn/Step not measured") {
		t.Fatalf("missing kept-entry warning: %q", errOut.String())
	}
	// The rewritten file must still satisfy the gate against its own numbers.
	out.Reset()
	errOut.Reset()
	if code := run(path, benchFile, false, &out, &errOut); code != 1 {
		// Gate fails only because BenchmarkChurn/Step is absent from the
		// bench output — the two measured entries must pass exactly.
		t.Fatalf("post-update gate exited %d (stderr: %s)", code, errOut.String())
	}
	if strings.Contains(errOut.String(), "regressed") {
		t.Fatalf("freshly updated baseline flags a regression: %s", errOut.String())
	}
}

// TestRenderBaselineRoundTrips pins the writer against the reader: a
// render → load cycle must reproduce the exact Baseline, including
// fractional metric values.
func TestRenderBaselineRoundTrips(t *testing.T) {
	base := Baseline{
		Description:       "d",
		NsToleranceFactor: 2.5,
		Benchmarks: map[string]Metrics{
			"BenchmarkX": {NsPerOp: 123456.75, BytesPerOp: 12, AllocsPerOp: 3,
				Counts: map[string]float64{"knn-points/op": 309, "memo-calls/op": 1.5}},
		},
	}
	path := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(path, renderBaseline(base), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadBaseline(path)
	if err != nil {
		t.Fatalf("rendered baseline does not parse: %v", err)
	}
	if !reflect.DeepEqual(got.Benchmarks["BenchmarkX"], base.Benchmarks["BenchmarkX"]) ||
		got.NsToleranceFactor != 2.5 || got.Description != "d" {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

// formatLine renders m as bench output with the given allocs/op,
// including m's recorded counts.
func formatLine(m Metrics, allocs float64) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	line := f(m.NsPerOp) + " ns/op\t"
	for unit, v := range m.Counts {
		line += f(v) + " " + unit + "\t"
	}
	return line + f(m.BytesPerOp) + " B/op\t" + f(allocs) + " allocs/op"
}
