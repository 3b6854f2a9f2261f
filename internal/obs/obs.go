// Package obs is the reproduction's stdlib-only observability layer: a
// preallocated metrics registry whose hot-path record calls are
// allocation-free, Prometheus text-format exposition, and a sampled
// span tracer exportable as Chrome trace-event JSON.
//
// The registry contract has three rules:
//
//  1. Register once, record forever: Counter/Gauge/Histogram return
//     preallocated handles whose Inc/Add/Set/Observe methods perform
//     only atomic operations — no allocation, no lock, no map lookup —
//     so the engine-tick and schedule-round zero-alloc contracts
//     survive instrumentation. Registration of an already-registered
//     name returns the existing handle, making wiring idempotent.
//
//  2. Nil is off: every record method no-ops on a nil receiver, so a
//     subsystem instruments unconditionally and the caller decides
//     whether a registry exists at all.
//
//  3. Deterministic vs wall-clock: metrics that measure wall time are
//     registered with the WallClock option and excluded from
//     DeterministicSnapshot, which is the only view allowed into
//     reproducible sweep output. Counters and gauges that are pure
//     functions of the event stream are deterministic and publishable.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready;
// a nil Counter records nothing.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as float64 bits.
// The zero value is ready; a nil Gauge records nothing.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (a CAS loop; still allocation-free).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: cumulative-on-read bucket
// counts, a total count and a sum. Buckets are fixed at registration so
// Observe is a short linear scan plus atomic adds — allocation-free.
// A nil Histogram records nothing.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	les    []string        // preformatted le labels, len(bounds)+1 ("+Inf" last)
	counts []atomic.Uint64 // per-bucket (non-cumulative) counts
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns the mean observed value (0 before any observation).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// ExpBuckets returns n upper bounds starting at start, each factor times
// the previous — the standard latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefBuckets is the default latency bucket ladder (seconds): 10µs to
// ~2.6s in powers of four.
func DefBuckets() []float64 { return ExpBuckets(1e-5, 4, 10) }

// metricKind discriminates the registry's entries.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	gaugeFuncKind
	histogramKind
)

// metric is one registered family (all families here are unlabelled
// single series, except histograms which expand into bucket series).
type metric struct {
	name      string
	help      string
	kind      metricKind
	wallClock bool

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Option tunes a registration.
type Option func(*metric)

// WallClock marks a metric as measuring wall time (or any other
// run-to-run nondeterministic quantity): it is exposed on /metrics but
// excluded from DeterministicSnapshot, so it can never leak into
// reproducible sweep output.
func WallClock() Option { return func(m *metric) { m.wallClock = true } }

// Registry holds registered metrics. Registration takes a lock;
// recording through the returned handles never does. A nil Registry
// returns nil handles from every constructor, which record nothing —
// "no registry" and "metrics off" are the same spelling.
type Registry struct {
	mu     sync.RWMutex
	order  []*metric
	byName map[string]*metric
}

// registryHint pre-sizes a registry's index for the largest family set
// registered today, the placement service's ~60 series, so registering
// them never regrows it.
const registryHint = 64

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric, registryHint), order: make([]*metric, 0, registryHint)}
}

// register adds m under its name, returning the existing entry when the
// name is already taken with the same kind. A kind clash panics: two
// subsystems disagreeing about a metric's type is a programming error.
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[m.name]; ok {
		if old.kind != m.kind {
			panic("obs: metric " + m.name + " re-registered with a different type")
		}
		return old
	}
	r.byName[m.name] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, opts ...Option) *Counter {
	if r == nil {
		return nil
	}
	m := &metric{name: name, help: help, kind: counterKind, counter: &Counter{}}
	for _, o := range opts {
		o(m)
	}
	return r.register(m).counter
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, opts ...Option) *Gauge {
	if r == nil {
		return nil
	}
	m := &metric{name: name, help: help, kind: gaugeKind, gauge: &Gauge{}}
	for _, o := range opts {
		o(m)
	}
	return r.register(m).gauge
}

// GaugeFunc registers a gauge evaluated at scrape time — for values that
// already live somewhere race-safe (channel lengths, runtime stats,
// atomic snapshots). GaugeFuncs are never part of DeterministicSnapshot:
// scrape timing is wall-clock by nature.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, kind: gaugeFuncKind, wallClock: true, fn: fn})
}

// Histogram registers (or finds) a fixed-bucket histogram. bounds must
// be ascending; nil bounds get DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, opts ...Option) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefBuckets()
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
		les:    make([]string, len(bounds)+1),
	}
	for i, b := range bounds {
		h.les[i] = formatFloat(b)
	}
	h.les[len(bounds)] = "+Inf"
	m := &metric{name: name, help: help, kind: histogramKind, hist: h}
	for _, o := range opts {
		o(m)
	}
	return r.register(m).hist
}

// sorted returns the registered metrics in name order (a fresh slice;
// exposition and snapshots are off the hot path).
func (r *Registry) sorted() []*metric {
	r.mu.RLock()
	out := append([]*metric(nil), r.order...)
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// DeterministicSnapshot returns the current value of every metric whose
// value is a pure function of the event stream: counters and gauges not
// marked WallClock. Histograms and GaugeFuncs are excluded — the former
// because every histogram here measures latency, the latter because
// scrape-time values depend on when you look. This is the only registry
// view sweep cells may publish into their reproducible JSON/CSV output.
func (r *Registry) DeterministicSnapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, m := range r.sorted() {
		if m.wallClock {
			continue
		}
		switch m.kind {
		case counterKind:
			out[m.name] = float64(m.counter.Value())
		case gaugeKind:
			out[m.name] = m.gauge.Value()
		}
	}
	return out
}
