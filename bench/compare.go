package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runCompare implements `mdcbench compare -base a.jsonl -head b.jsonl`:
// the pairing rule for a claimed gain in a small sandbox. The i-th run of
// a workload in the base file pairs with the i-th run of that workload in
// the head file, so alternate base and head runs when recording. A
// metric counts as improved only when head wins at least 9 of every 10
// pairs (ties count for neither), at least 10 pairs ran, and the medians
// differ by more than the base runs' interquartile range. An end-to-end
// metric whose run-to-run spread exceeds its bound is unresolved, unless
// every head run beats every base run; otherwise it regressed when the
// head median is worse than the base median by more than the bound.
// Metrics without a bound (per-layer, detail) are only ever improved,
// worse by the same pairing rule, or no claim. The exit code is 1 when an
// end-to-end metric regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdcbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("base", "", "JSONL records of the parent commit (-record)")
	headPath := fs.String("head", "", "JSONL records of the change")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := loadSpec(*specPath)
	if err == nil && (*basePath == "" || *headPath == "") {
		err = fmt.Errorf("compare needs -base and -head")
	}
	var base, head []record
	if err == nil {
		base, err = readRecords(*basePath)
	}
	if err == nil {
		head, err = readRecords(*headPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mdcbench compare:", err)
		return 1
	}
	rows := compareRecords(s, base, head)
	fmt.Fprintf(stdout, "%-19s %-30s %-8s %-34s %-34s %5s %4s  %s\n",
		"workload", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "pairs", "wins", "verdict")
	regressed := false
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-19s %-30s %-8s %-34s %-34s %5d %4d  %s\n",
			r.workload, r.metric, r.unit, quart(r.base), quart(r.head), r.pairs, r.wins, r.verdict)
		regressed = regressed || r.verdict == "regressed"
	}
	if regressed {
		return 1
	}
	return 0
}

func quart(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

type compareRow struct {
	workload, metric, unit string
	base, head             []float64
	pairs, wins            int
	verdict                string
}

// compareRecords builds one row per (workload, metric) present on both
// sides: end-to-end and detail metrics from untraced runs, per-layer
// metrics from traced runs.
func compareRecords(s *spec, base, head []record) []compareRow {
	type key struct{ workload, metric string }
	type sides struct{ base, head []float64 }
	vals := map[key]*sides{}
	add := func(recs []record, isHead bool) {
		for _, r := range recs {
			groups := []map[string]float64{r.Metrics, r.Details}
			if r.Trace == 1 {
				groups = []map[string]float64{r.Layers}
			}
			for _, g := range groups {
				for name, v := range g {
					k := key{r.Workload, name}
					if vals[k] == nil {
						vals[k] = &sides{}
					}
					if isHead {
						vals[k].head = append(vals[k].head, v)
					} else {
						vals[k].base = append(vals[k].base, v)
					}
				}
			}
		}
	}
	add(base, false)
	add(head, true)
	var rows []compareRow
	for k, v := range vals {
		d, ok := defByName(k.metric)
		if !ok || len(v.base) == 0 || len(v.head) == 0 {
			continue
		}
		verdict, pairs, wins := judge(v.base, v.head, d.Better == "lower", s.bound(k.metric))
		rows = append(rows, compareRow{k.workload, k.metric, d.Unit, v.base, v.head, pairs, wins, verdict})
	}
	order := map[string]int{}
	for i, d := range metricDefs {
		order[d.Name] = i
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return order[rows[i].metric] < order[rows[j].metric]
	})
	return rows
}

// judge applies the pairing rule to one metric; bound 0 means the metric
// has none.
func judge(base, head []float64, lowerIsBetter bool, bound float64) (verdict string, pairs, wins int) {
	better := func(h, b float64) bool {
		if lowerIsBetter {
			return h < b
		}
		return h > b
	}
	pairs = min(len(base), len(head))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(head[i], base[i]):
			wins++
		case better(base[i], head[i]):
			losses++
		}
	}
	bq1, bMed, bq3 := quartiles(base)
	hMed := median(head)
	gain := hMed - bMed
	if lowerIsBetter {
		gain = -gain
	}
	enough := pairs >= 10
	switch {
	case enough && 10*wins >= 9*pairs && gain > bq3-bq1:
		return "improved", pairs, wins
	case bound == 0 && enough && 10*losses >= 9*pairs && -gain > bq3-bq1:
		return "worse", pairs, wins
	case bound == 0:
		return "no claim", pairs, wins
	case math.Max(spread(base), spread(head)) > bound:
		if allBetter(head, base, better) {
			return "no worse: every head run beats every base run", pairs, wins
		}
		return "unresolved: spread exceeds bound", pairs, wins
	case bMed != 0 && -gain/math.Abs(bMed) > bound:
		return "regressed", pairs, wins
	}
	return "within bound", pairs, wins
}

func allBetter(head, base []float64, better func(h, b float64) bool) bool {
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				return false
			}
		}
	}
	return true
}
