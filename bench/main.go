// Command mdcbench is the end-to-end benchmark of the power-aware
// multi-DC manager. One process runs one (workload, seed): it builds the
// workload's inputs from the seed, times only calls into the program's
// public functions (core.Manager.Step, sweep.Run, the serve.Server
// handler on an httptest server, serve.New with Restore), checks that the
// outputs are correct, and prints every metric by name with its unit.
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also records spans around every call, writes them as Chrome
// trace-event JSON, and prints the per-layer metrics instead.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	mdcbench --workload W --seed S [--seconds 10] [--trace 0|1] [-record runs.jsonl]
//	mdcbench -list [-spec BENCHMARK.json]
//	mdcbench compare -base a.jsonl -head b.jsonl [-spec BENCHMARK.json]
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/predict"
	"repro/internal/sweep"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	wlHyperscale: runHyperscale,
	wlSweep:      runSweep,
	wlServeLive:  runServeLive,
	wlRestore:    runRestore,
}

//go:embed goldens.json
var goldensJSON []byte

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("mdcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Uint64Var(&cfg.seed, "seed", 42, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measure passes for at least this long")
	traceFlag := fs.Int("trace", 0, "1 = traced run: record spans, print per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of a traced run (default <workdir>/trace/<workload>-<seed>.json)")
	fs.BoolVar(&cfg.quick, "quick", false, "small inputs, for the self-test")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for journals and traces")
	goldens := fs.String("goldens", "", "golden digests file (default: the recorded goldens)")
	record := fs.String("record", "", "append this run's full record to a JSONL file (for compare)")
	list := fs.Bool("list", false, "validate BENCHMARK.json and print its workloads and metrics")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		s, err := loadSpec(*specPath)
		if err != nil {
			fmt.Fprintln(stderr, "mdcbench:", err)
			return 1
		}
		printList(stdout, s)
		return 0
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "mdcbench: unknown workload %q (have %v)\n", cfg.workload, workloadNames())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "mdcbench: --trace must be 0 or 1")
		return 2
	}
	cfg.traced = *traceFlag == 1
	// The benchmark gates single-core numbers: one P keeps a noisy shared
	// host's second core out of every measurement, and makes results
	// independent of the machine's core count. Multi-core scaling is
	// not measured here.
	runtime.GOMAXPROCS(1)
	var err error
	if cfg.goldens, err = loadGoldens(*goldens, cfg); err != nil {
		fmt.Fprintln(stderr, "mdcbench:", err)
		return 1
	}
	r, err := newRun(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "mdcbench:", err)
		return 1
	}
	defer os.RemoveAll(r.dir)
	if err := fn(r); err != nil {
		fmt.Fprintf(stderr, "mdcbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := r.finish(stdout, *record); err != nil {
		fmt.Fprintln(stderr, "mdcbench:", err)
		return 1
	}
	if !r.correct() {
		for _, msg := range r.problems {
			fmt.Fprintln(stderr, "mdcbench: check failed:", msg)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
	quick    bool
	workdir  string
	goldens  map[string]string // golden digest per workload key, this platform and seed
}

// goldenKey names a workload's digest in the goldens file.
func (c config) goldenKey() string {
	if c.quick {
		return c.workload + "@quick"
	}
	return c.workload
}

// loadGoldens returns the recorded digests for this platform and seed:
// {"<goos>/<goarch>": {"<seed>": {"<workload>": "<digest>"}}}. Seeds
// without goldens get only the in-run checks.
func loadGoldens(path string, c config) (map[string]string, error) {
	data := goldensJSON
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	return all[runtime.GOOS+"/"+runtime.GOARCH][strconv.FormatUint(c.seed, 10)], nil
}

// sample is what one pass measured. Passes are fresh and identical, so
// the run reports medians over them.
type sample struct {
	traced bool
	wall   time.Duration // the timed part of the pass
	ticks  int           // simulated ticks advanced in it
	ops    []float64     // client-timed call latencies, ms
	// parts splits the timed wall into pieces that every pass repeats in
	// the same order — a Step, a closed-loop tick, a call — in seconds.
	parts  []float64
	vals   map[string]float64
	lat    map[string][]float64 // latency samples (ms) behind detail metrics
	digest string

	alloc, mallocs, gcs uint64
	pause               time.Duration
	before              runtime.MemStats
}

func newSample() *sample {
	return &sample{vals: map[string]float64{}, lat: map[string][]float64{}}
}

// startWindow marks the start of the pass's timed window for the heap
// and GC counters; stopWindow closes it. The window starts from a
// collected heap, so garbage from untimed preparation (a fleet build, a
// directory copy, the last pass) is not collected on the clock, and
// every pass starts alike.
func (s *sample) startWindow() {
	runtime.GC()
	runtime.ReadMemStats(&s.before)
}

func (s *sample) stopWindow() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	s.alloc += after.TotalAlloc - s.before.TotalAlloc
	s.mallocs += after.Mallocs - s.before.Mallocs
	s.gcs += uint64(after.NumGC - s.before.NumGC)
	s.pause += time.Duration(after.PauseTotalNs - s.before.PauseTotalNs)
}

// op records one client-timed call.
func (s *sample) op(d time.Duration) { s.ops = append(s.ops, ms(d)) }

// run is one benchmark process's state.
type run struct {
	cfg     config
	dir     string // scratch directory, removed at exit
	tr      *tracer
	samples []*sample
	bundle  *predict.Bundle

	setupS, trainS    []float64
	details           map[string]float64
	counts            map[string]int // samples behind a detail percentile
	attempted, failed int
	problems          []string
}

func newRun(cfg config) (*run, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, dir: dir, details: map[string]float64{}, counts: map[string]int{}}
	if cfg.traced {
		r.tr = newTracer()
	}
	return r, nil
}

// minPasses is the fewest passes of each kind (untraced, traced) a run
// makes, whatever --seconds says.
func (r *run) minPasses() int {
	if r.cfg.quick {
		return 2
	}
	return 3
}

// modelSeed seeds the predictor bundle that hyperscale-managed and the
// serve workloads use. It is fixed so that the workload seed varies the
// inputs (fleet traces, faults, traffic) and not the learned models:
// bundles trained from different seeds place a hyperscale fleet
// differently enough to change a round's cost threefold, which would
// swamp any change to the code.
const modelSeed = 42

// train fits the predictor bundle the way sweep.TrainedBundle does on a
// cache miss. -quick reuses the process's cached bundle instead, so the
// self-test trains once.
func (r *run) train() (*predict.Bundle, error) {
	if r.cfg.quick {
		return sweep.TrainedBundle(modelSeed)
	}
	h, err := predict.Collect(predict.DefaultHarvestOpts(modelSeed))
	if err != nil {
		return nil, err
	}
	return predict.Train(h, predict.DefaultTrainConfig(modelSeed))
}

// setup times fresh set-ups — train a bundle, then build the workload's
// system — and keeps the last bundle for the passes. Several set-ups per
// run make setup_s a median, not one noisy reading.
func (r *run) setup(build func() error) error {
	n := 5
	if r.cfg.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		runtime.GC() // each set-up starts from a collected heap, like a pass
		t0 := time.Now()
		b, err := r.train()
		if err != nil {
			return fmt.Errorf("training bundle: %w", err)
		}
		r.bundle = b
		t1 := time.Now()
		if err := build(); err != nil {
			return err
		}
		r.trainS = append(r.trainS, t1.Sub(t0).Seconds())
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	return nil
}

// passes runs fresh passes until the measured phase has lasted
// cfg.seconds and at least minPasses passes of each kind ran. A traced
// run alternates untraced and traced passes, so the tracing overhead is
// measured inside one process; per-layer metrics come from the traced
// passes and end-to-end ones only ever from untraced passes.
func (r *run) passes(pass func(s *sample, tr *tracer) error) error {
	start := time.Now()
	var plain, traced int
	for {
		s := newSample()
		var tr *tracer
		if r.cfg.traced && plain > traced {
			s.traced, tr = true, r.tr
		}
		if err := pass(s, tr); err != nil {
			return err
		}
		r.samples = append(r.samples, s)
		if s.traced {
			traced++
		} else {
			plain++
		}
		enough := plain >= r.minPasses() && (!r.cfg.traced || traced >= r.minPasses())
		if enough && time.Since(start).Seconds() >= r.cfg.seconds {
			return nil
		}
	}
}

// untraced returns the untraced samples, and layerSamples the ones
// per-layer metrics come from (traced when the run is traced).
func (r *run) untraced() []*sample { return r.filter(false) }

func (r *run) layerSamples() []*sample { return r.filter(r.cfg.traced) }

func (r *run) filter(traced bool) []*sample {
	var out []*sample
	for _, s := range r.samples {
		if s.traced == traced {
			out = append(out, s)
		}
	}
	return out
}

// check records a failed correctness check without stopping the run.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) correct() bool { return len(r.problems) == 0 }

// checkDigests asserts every pass produced the same digest and, when the
// seed has a recorded golden, that it matches.
func (r *run) checkDigests() {
	if len(r.samples) == 0 {
		r.check(false, "no passes ran")
		return
	}
	want := r.samples[0].digest
	for i, s := range r.samples {
		r.check(s.digest == want, "pass %d digest %s differs from pass 0's %s", i, s.digest, want)
	}
	if g, ok := r.cfg.goldens[r.cfg.goldenKey()]; ok {
		r.check(want == g, "digest %s does not match the golden %s for seed %d", want, g, r.cfg.seed)
	}
}

// detailMedian sets a detail metric to the median of per-pass values.
func (r *run) detailMedian(name string) {
	var xs []float64
	for _, s := range r.untraced() {
		if v, ok := s.vals[name]; ok {
			xs = append(xs, v)
		}
	}
	if len(xs) > 0 {
		r.details[name] = median(xs)
	}
}

// pooled returns the latency samples of one kind from every untraced
// pass.
func (r *run) pooled(kinds ...string) []float64 {
	var out []float64
	for _, s := range r.untraced() {
		for _, k := range kinds {
			out = append(out, s.lat[k]...)
		}
	}
	return out
}

// latency sets name_p50 (always) and name_p<pct> (when enough samples
// lie beyond it) from pooled samples, with the sample count.
func (r *run) latency(name string, xs []float64, pcts ...int) {
	if len(xs) == 0 {
		return
	}
	r.details[name+"_p50"] = median(xs)
	r.counts[name+"_p50"] = len(xs)
	for _, p := range pcts {
		if v, ok := tailPercentile(xs, float64(p)/100); ok {
			key := fmt.Sprintf("%s_p%d", name, p)
			r.details[key] = v
			r.counts[key] = len(xs)
		}
	}
}

// layerValues computes every per-layer metric: the runtime counters per
// tick, the workload's per-pass values, medians over the layer samples.
func (r *run) layerValues() map[string]float64 {
	out := map[string]float64{}
	ss := r.layerSamples()
	for _, name := range defsOf(kindLayer) {
		var xs []float64
		for _, s := range ss {
			ticks := float64(max(s.ticks, 1))
			switch name {
			case "runtime.alloc_kb_per_tick":
				xs = append(xs, float64(s.alloc)/1024/ticks)
			case "runtime.mallocs_per_tick":
				xs = append(xs, float64(s.mallocs)/ticks)
			case "runtime.gc_cycles_per_pass":
				xs = append(xs, float64(s.gcs))
			case "runtime.gc_pause_ms_per_pass":
				xs = append(xs, ms(s.pause))
			default:
				xs = append(xs, s.vals[name])
			}
		}
		out[name] = median(xs)
	}
	out["predict.train_s"] = median(r.trainS)
	if r.cfg.traced {
		var plain, traced []float64
		for _, s := range r.samples {
			if s.traced {
				traced = append(traced, s.wall.Seconds())
			} else {
				plain = append(plain, s.wall.Seconds())
			}
		}
		out["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1
	}
	return out
}

// e2eValues computes every end-to-end metric from the untraced passes.
func (r *run) e2eValues() map[string]float64 {
	ss := r.untraced()
	var ops []float64
	for _, s := range ss {
		ops = append(ops, s.ops...)
	}
	rate := 0.0
	if len(ss) > 0 {
		rate = float64(ss[0].ticks) / passSeconds(ss)
	}
	return map[string]float64{
		"setup_s":         median(r.setupS),
		"sim_ticks_per_s": rate,
		"op_ms_p50":       median(ops),
		"peak_rss_mb":     peakRSSMB(),
	}
}

// passSeconds estimates the timed wall of one pass. Passes repeat the
// same work, so each part (a Step, a closed-loop tick, a call) is timed
// once per pass and the estimate sums every part's median over passes: a
// burst of noise from the rest of the machine then inflates one reading
// of a few parts, not the estimate.
func passSeconds(ss []*sample) float64 {
	col := make([]float64, len(ss))
	var total float64
	for i := range ss[0].parts {
		for k, s := range ss {
			col[k] = s.parts[i]
		}
		total += median(col)
	}
	return total
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// finish writes and checks the trace, prints the readable report and the
// result line, and appends the run record.
func (r *run) finish(stdout io.Writer, recordPath string) error {
	e2e := r.e2eValues()
	layer := r.layerValues()
	if r.attempted == 0 {
		return fmt.Errorf("no calls were attempted")
	}
	var traceReport bytes.Buffer
	if r.tr != nil {
		if err := r.reportTrace(&traceReport); err != nil {
			return err
		}
	}
	if !r.correct() {
		r.failed = r.attempted
	}
	r.details["error_frac"] = float64(r.failed) / float64(r.attempted)

	fmt.Fprintf(stdout, "mdcbench %s seed %d: %d passes (%d traced), %d calls, %d failed\n",
		r.cfg.workload, r.cfg.seed, len(r.samples), len(r.samples)-len(r.untraced()), r.attempted, r.failed)
	if len(r.samples) > 0 {
		fmt.Fprintf(stdout, "digest: %s (golden key %q)\n", r.samples[0].digest, r.cfg.goldenKey())
	}
	fmt.Fprint(stdout, "timed pass walls (s, * = traced):")
	for _, s := range r.samples {
		mark := ""
		if s.traced {
			mark = "*"
		}
		fmt.Fprintf(stdout, " %.4g%s", s.wall.Seconds(), mark)
	}
	fmt.Fprintln(stdout)
	stdout.Write(traceReport.Bytes())
	printGroup(stdout, "end-to-end", e2e, nil)
	printGroup(stdout, "per-layer", layer, nil)
	printGroup(stdout, "detail", r.details, r.counts)

	shown, kind := e2e, kindE2E
	if r.cfg.traced {
		shown, kind = layer, kindLayer
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]vu{}}
	for _, name := range defsOf(kind) {
		d, _ := defByName(name)
		v := shown[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
		res.Metrics[name] = vu{v, d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if recordPath != "" {
		return r.appendRecord(recordPath, e2e, layer)
	}
	return nil
}

// reportTrace writes the trace file and prints each layer's self time.
// Self times are computed so that, with properly nested spans, they sum
// to the pass spans exactly; a larger gap means spans overlap or escape
// their parents, and fails the run's checks.
func (r *run) reportTrace(w io.Writer) error {
	path := r.cfg.traceOut
	if path == "" {
		path = filepath.Join(r.cfg.workdir, "trace", fmt.Sprintf("%s-%d.json", r.cfg.workload, r.cfg.seed))
	}
	if err := r.tr.write(path); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	self, roots := r.tr.selfTimes()
	var sum time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		layers = append(layers, l)
		sum += d
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "trace: %d spans (+%d from the service) in %s\n", len(r.tr.spans), len(r.tr.server), path)
	for _, l := range layers {
		fmt.Fprintf(w, "  self %-8s %10.1f ms  %5.1f%%\n", l, ms(self[l]), 100*float64(self[l])/float64(max(roots, 1)))
	}
	gap := math.Abs(float64(sum-roots)) / float64(max(roots, 1))
	fmt.Fprintf(w, "  layers sum to %.1f ms of %.1f ms in pass spans (gap %.2f%%)\n", ms(sum), ms(roots), 100*gap)
	r.check(gap <= 0.05, "trace self times sum to %.1f ms, pass spans to %.1f ms", ms(sum), ms(roots))
	return nil
}

func printGroup(w io.Writer, title string, vals map[string]float64, counts map[string]int) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		d, _ := defByName(n)
		suffix := ""
		if c, ok := counts[n]; ok {
			suffix = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %s%s\n", n, vals[n], d.Unit, suffix)
	}
}

// record is one line of a -record file: everything compare needs.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Quick     bool               `json:"quick,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers"`
	Details   map[string]float64 `json:"details"`
	Counts    map[string]int     `json:"counts,omitempty"`
	Machine   string             `json:"machine"`
}

func (r *run) appendRecord(path string, e2e, layer map[string]float64) error {
	trace := 0
	if r.cfg.traced {
		trace = 1
	}
	rec := record{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Trace: trace, Quick: r.cfg.quick,
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: e2e, Layers: layer, Details: r.details, Counts: r.counts,
		Machine: fmt.Sprintf("%s/%s nproc=%d %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
