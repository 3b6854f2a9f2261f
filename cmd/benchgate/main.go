// Command benchgate turns `go test -bench -benchmem` output into a CI
// gate: it compares every measured benchmark against the committed
// baseline (BENCH_sched.json) and exits non-zero when allocations regress
// at all, or bytes/time regress beyond their noise tolerances.
//
// Allocations per op are deterministic for a fixed code path, so the gate
// is exact: one extra alloc/op fails. B/op is near-deterministic (map
// bucket growth wobbles a little) and fails beyond baseline ×
// bytes_tolerance_factor (default 1.5). Wall time varies across runners,
// so ns/op only fails beyond baseline × ns_tolerance_factor (default 3).
//
// Every other `<name>/op` metric a benchmark reports (b.ReportMetric, e.g.
// knn-points/op) is a work count: a pure function of the benchmarked
// problem, the same on any host and at any GOMAXPROCS. A recorded count
// gates exactly in both directions, so an algorithmic change shows up as
// a changed count even where the time is too noisy to tell.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkScheduleRound -benchmem -benchtime 20x . | \
//	    go run ./cmd/benchgate -baseline BENCH_sched.json
//
// With -update the tool rewrites the baseline instead of gating: every
// measured benchmark replaces (or joins) its entry in the benchmarks
// block, while description, machine, tolerances, history and notes are
// preserved verbatim. Baseline entries the bench output did not measure
// are kept (a partial bench run must never silently drop a gate) and
// reported. Update notes/machine by hand when the profile shifts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measured or baseline numbers.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Counts holds the benchmark's work counts, keyed by unit
	// ("knn-points/op").
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Baseline is the committed perf contract (BENCH_sched.json).
type Baseline struct {
	Description string `json:"description"`
	Machine     string `json:"machine"`
	// NsToleranceFactor scales every baseline ns/op into the failure
	// threshold (0 = default 3, absorbing runner noise and slower CI
	// hardware while still catching order-of-magnitude regressions).
	NsToleranceFactor float64 `json:"ns_tolerance_factor"`
	// BytesToleranceFactor does the same for B/op (0 = default 1.5:
	// near-deterministic, but map bucket growth wobbles a few percent).
	BytesToleranceFactor float64            `json:"bytes_tolerance_factor"`
	Benchmarks           map[string]Metrics `json:"benchmarks"`
	// History and Notes are documentation; the gate ignores them.
	History map[string]map[string]Metrics `json:"history,omitempty"`
	Notes   string                        `json:"notes,omitempty"`
}

const (
	defaultNsTolerance    = 3
	defaultBytesTolerance = 1.5
)

// parseBench extracts per-benchmark metrics from `go test -bench` output.
// The trailing -N GOMAXPROCS suffix is stripped from names; when a name
// repeats (e.g. -count > 1) the worst (largest) value of each metric is
// kept, so the gate judges the least flattering run. Units ending in /op
// other than ns/op, B/op and allocs/op are kept as work counts.
func parseBench(r io.Reader) (map[string]Metrics, error) {
	got := make(map[string]Metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := trimProcs(fields[0])
		m := got[name]
		seen := false
		// fields[1] is the iteration count; after it come value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad value %q in %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = max(m.NsPerOp, v)
				seen = true
			case "B/op":
				m.BytesPerOp = max(m.BytesPerOp, v)
				seen = true
			case "allocs/op":
				m.AllocsPerOp = max(m.AllocsPerOp, v)
				seen = true
			default:
				unit := fields[i+1]
				if !strings.HasSuffix(unit, "/op") {
					continue
				}
				if m.Counts == nil {
					m.Counts = make(map[string]float64)
				}
				if old, ok := m.Counts[unit]; !ok || v > old {
					m.Counts[unit] = v
				}
				seen = true
			}
		}
		if seen {
			got[name] = m
		}
	}
	return got, sc.Err()
}

// trimProcs removes the -N GOMAXPROCS suffix go test appends to names.
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// gate compares measured metrics against the baseline and returns one
// violation message per failure, in stable (sorted) order. Every baseline
// benchmark, and every count recorded for it, must be present in the
// measured set: a gate that silently skips a missing one would pass
// vacuously.
func gate(base Baseline, got map[string]Metrics) []string {
	factor := base.NsToleranceFactor
	if factor <= 0 {
		factor = defaultNsTolerance
	}
	bytesFactor := base.BytesToleranceFactor
	if bytesFactor <= 0 {
		bytesFactor = defaultBytesTolerance
	}
	var violations []string
	for _, name := range sortedKeys(base.Benchmarks) {
		want := base.Benchmarks[name]
		g, ok := got[name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: baseline benchmark missing from bench output", name))
			continue
		}
		if g.AllocsPerOp > want.AllocsPerOp {
			violations = append(violations,
				fmt.Sprintf("%s: allocs/op regressed: %.0f > baseline %.0f (exact gate)",
					name, g.AllocsPerOp, want.AllocsPerOp))
		}
		for _, unit := range sortedKeys(want.Counts) {
			v, ok := g.Counts[unit]
			switch {
			case !ok:
				violations = append(violations,
					fmt.Sprintf("%s: recorded count %s missing from bench output", name, unit))
			case v != want.Counts[unit]:
				violations = append(violations,
					fmt.Sprintf("%s: %s changed: %s != baseline %s (exact gate)",
						name, unit, fmtNum(v), fmtNum(want.Counts[unit])))
			}
		}
		if limit := want.BytesPerOp * bytesFactor; g.BytesPerOp > limit {
			violations = append(violations,
				fmt.Sprintf("%s: B/op regressed: %.0f > %.0f (baseline %.0f × tolerance %g)",
					name, g.BytesPerOp, limit, want.BytesPerOp, bytesFactor))
		}
		if limit := want.NsPerOp * factor; g.NsPerOp > limit {
			violations = append(violations,
				fmt.Sprintf("%s: ns/op regressed: %.0f > %.0f (baseline %.0f × tolerance %g)",
					name, g.NsPerOp, limit, want.NsPerOp, factor))
		}
	}
	return violations
}

// fmtNum renders a metric value without exponent notation, matching the
// hand-written baseline style.
func fmtNum(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// sortedKeys returns the keys of m in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// renderBaseline serialises a Baseline in the committed BENCH_sched.json
// style: two-space indent, one line per benchmark entry, fields in
// declaration order, benchmark names sorted for stable diffs.
func renderBaseline(base Baseline) []byte {
	var b strings.Builder
	enc := func(v any) string {
		j, _ := json.Marshal(v)
		return string(j)
	}
	metricsLine := func(m Metrics) string {
		line := fmt.Sprintf(`{"ns_per_op": %s, "bytes_per_op": %s, "allocs_per_op": %s`,
			fmtNum(m.NsPerOp), fmtNum(m.BytesPerOp), fmtNum(m.AllocsPerOp))
		if len(m.Counts) > 0 {
			line += `, "counts": {`
			for i, unit := range sortedKeys(m.Counts) {
				if i > 0 {
					line += ", "
				}
				line += enc(unit) + ": " + fmtNum(m.Counts[unit])
			}
			line += "}"
		}
		return line + "}"
	}
	block := func(indent string, set map[string]Metrics) {
		names := sortedKeys(set)
		for i, name := range names {
			comma := ","
			if i == len(names)-1 {
				comma = ""
			}
			fmt.Fprintf(&b, "%s%s: %s%s\n", indent, enc(name), metricsLine(set[name]), comma)
		}
	}
	b.WriteString("{\n")
	fmt.Fprintf(&b, "  \"description\": %s,\n", enc(base.Description))
	fmt.Fprintf(&b, "  \"machine\": %s,\n", enc(base.Machine))
	fmt.Fprintf(&b, "  \"ns_tolerance_factor\": %s,\n", fmtNum(base.NsToleranceFactor))
	fmt.Fprintf(&b, "  \"bytes_tolerance_factor\": %s,\n", fmtNum(base.BytesToleranceFactor))
	b.WriteString("  \"benchmarks\": {\n")
	block("    ", base.Benchmarks)
	b.WriteString("  }")
	if len(base.History) > 0 {
		b.WriteString(",\n  \"history\": {\n")
		eras := sortedKeys(base.History)
		for i, era := range eras {
			fmt.Fprintf(&b, "    %s: {\n", enc(era))
			block("      ", base.History[era])
			b.WriteString("    }")
			if i < len(eras)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString("  }")
	}
	if base.Notes != "" {
		fmt.Fprintf(&b, ",\n  \"notes\": %s", enc(base.Notes))
	}
	b.WriteString("\n}\n")
	return []byte(b.String())
}

// update merges measured metrics into the baseline's benchmarks block and
// returns the names it replaced, the names it added, and the baseline
// entries the bench output did not cover (kept as-is).
func update(base *Baseline, got map[string]Metrics) (updated, added, kept []string) {
	for name, m := range got {
		if _, ok := base.Benchmarks[name]; ok {
			updated = append(updated, name)
		} else {
			added = append(added, name)
		}
		base.Benchmarks[name] = m
	}
	for name := range base.Benchmarks {
		if _, ok := got[name]; !ok {
			kept = append(kept, name)
		}
	}
	sort.Strings(updated)
	sort.Strings(added)
	sort.Strings(kept)
	return updated, added, kept
}

func loadBaseline(path string) (Baseline, error) {
	var base Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("benchgate: parsing %s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return base, fmt.Errorf("benchgate: %s has no benchmarks to gate on", path)
	}
	return base, nil
}

func run(baselinePath, inputPath string, doUpdate bool, out, errOut io.Writer) int {
	base, err := loadBaseline(baselinePath)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	in := io.Reader(os.Stdin)
	if inputPath != "" && inputPath != "-" {
		f, err := os.Open(inputPath)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	if len(got) == 0 {
		// Zero parsed benchmarks means the bench step itself broke (crash,
		// build failure, a -bench pattern matching nothing) — distinct
		// from a specific baseline benchmark being renamed away, which
		// gate reports per name. Either way nothing passes silently.
		fmt.Fprintln(errOut, "benchgate: no benchmarks found in bench output — did the bench run fail or match nothing?")
		return 2
	}
	if doUpdate {
		updated, added, kept := update(&base, got)
		if err := os.WriteFile(baselinePath, renderBaseline(base), 0o644); err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
		for _, name := range updated {
			fmt.Fprintf(out, "benchgate: updated %s\n", name)
		}
		for _, name := range added {
			fmt.Fprintf(out, "benchgate: added %s (new gate)\n", name)
		}
		for _, name := range kept {
			fmt.Fprintf(errOut, "benchgate: warn %s not measured — baseline entry kept unchanged\n", name)
		}
		return 0
	}
	violations := gate(base, got)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(errOut, "benchgate: FAIL %s\n", v)
		}
		return 1
	}
	for _, name := range unbaselined(base, got) {
		fmt.Fprintf(errOut, "benchgate: warn %s measured but absent from the baseline — add it to keep it gated\n", name)
	}
	for _, name := range sortedKeys(base.Benchmarks) {
		g := got[name]
		want := base.Benchmarks[name]
		fmt.Fprintf(out, "benchgate: ok %s: %.0f allocs/op (baseline %.0f), %.0f ns/op (baseline %.0f)\n",
			name, g.AllocsPerOp, want.AllocsPerOp, g.NsPerOp, want.NsPerOp)
	}
	return 0
}

// unbaselined returns the measured benchmark names that have no baseline
// entry, sorted. They cannot regress the gate, which is exactly the
// problem: a new sub-benchmark stays ungated until the baseline learns
// it, so the run flags each one loudly.
func unbaselined(base Baseline, got map[string]Metrics) []string {
	var names []string
	for name := range got {
		if _, ok := base.Benchmarks[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func main() {
	baseline := flag.String("baseline", "BENCH_sched.json", "committed baseline file")
	input := flag.String("input", "-", "bench output file (- = stdin)")
	doUpdate := flag.Bool("update", false, "rewrite the baseline's benchmarks block from the bench output instead of gating")
	flag.Parse()
	os.Exit(run(*baseline, *input, *doUpdate, os.Stdout, os.Stderr))
}
