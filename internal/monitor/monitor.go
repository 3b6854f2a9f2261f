// Package monitor models what the management middleware can actually see.
//
// The paper's Section IV-B motivates learning precisely because monitored
// data is imperfect: observation windows smear values, virtualization
// overhead adds noise, and the monitors themselves occasionally eat up to
// half an Atom CPU thread. This package turns the simulator's ground truth
// into that imperfect view: windowed averages with multiplicative noise and
// occasional monitor-load spikes, plus the "resources used in the last
// 10 minutes" estimator the non-ML Best-Fit relies on.
package monitor

import (
	"repro/internal/model"
	"repro/internal/rng"
)

// Sample is one tick's observation of one VM (or PM aggregate).
type Sample struct {
	Tick int
	// Observed resource usage.
	Usage model.Resources
	// Observed load characteristics at the gateway.
	Load model.Load
	// Observed mean response time (seconds) over the tick.
	RT float64
	// SLA fulfilment computed from gateway RTs.
	SLA float64
	// QueueLen is the gateway's pending-request queue for this VM.
	QueueLen float64
}

// NoiseConfig controls observation distortion.
type NoiseConfig struct {
	// RelSD is the multiplicative log-normal sigma applied to resource
	// observations (0.05 = ~5% relative error).
	RelSD float64
	// SpikeProb is the per-tick probability that the monitor itself spikes,
	// inflating the PM CPU observation.
	SpikeProb float64
	// SpikeCPUPct is the CPU the monitor burns during a spike (the paper:
	// "peaking up to 50% of an Atom CPU thread").
	SpikeCPUPct float64
}

// DefaultNoise matches the distortions the paper describes.
var DefaultNoise = NoiseConfig{RelSD: 0.05, SpikeProb: 0.03, SpikeCPUPct: 50}

// ring is a fixed-capacity chronological window over a caller-owned
// backing array of capacity window. Once full, observations overwrite
// the oldest slot in place, so the observation path allocates nothing.
type ring[T any] struct {
	buf  []T
	n    int // elements stored (<= window)
	next int // slot the next push overwrites once full
}

func (r *ring[T]) push(v T, window int) {
	if r.n < window {
		r.buf = append(r.buf, v)
		r.n++
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % window
}

// at returns the k-th element in chronological order, k in [0, n).
func (r *ring[T]) at(k int) T { return r.buf[(r.next+k)%r.n] }

func (r *ring[T]) last() T { return r.at(r.n - 1) }

func (r *ring[T]) reset() {
	r.buf = r.buf[:0]
	r.n, r.next = 0, 0
}

// rings carves n windows out of one backing array.
func rings[T any](n, window int) []ring[T] {
	slab := make([]T, n*window)
	rs := make([]ring[T], n)
	for i := range rs {
		rs[i].buf = slab[i*window : i*window : (i+1)*window]
	}
	return rs
}

// Observer distorts ground truth into monitored samples and keeps a
// rolling window per VM slot and per PM, addressed by the simulator's
// dense indices. All windows are allocated together on the first
// observation, so observing allocates nothing after that. They are not
// allocated at construction: at hyperscale (20k VMs, ~18 MB of windows)
// doing so raised mdcbench hyperscale-managed's peak RSS from ~100 to
// ~117 MB, which allocating them in the first tick does not.
type Observer struct {
	noise    NoiseConfig
	stream   *rng.Stream
	window   int
	nVM, nPM int
	vms      []ring[Sample]          // nil until the first ObserveVM
	pms      []ring[model.Resources] // nil until the first ObservePM
}

// NewObserver builds an observer for vmSlots VM slots and pms PMs with
// the given window length in ticks (the paper's Best-Fit looks at the
// last 10 minutes = 10 ticks).
func NewObserver(noise NoiseConfig, window, vmSlots, pms int, stream *rng.Stream) *Observer {
	if window <= 0 {
		window = 10
	}
	return &Observer{noise: noise, stream: stream, window: window, nVM: vmSlots, nPM: pms}
}

// Window returns the observation window length in ticks.
func (o *Observer) Window() int { return o.window }

// ResetVM empties VM slot i's window. A slot handed to a newly admitted
// VM must start with no samples of its previous tenant.
func (o *Observer) ResetVM(i int) {
	if i < len(o.vms) {
		o.vms[i].reset()
	}
}

// ObserveVM distorts the true state of the VM in slot i into a monitored
// sample and logs it into the slot's rolling window.
func (o *Observer) ObserveVM(tick, i int, trueUsage model.Resources, load model.Load, rt, slaLvl, queueLen float64) Sample {
	s := Sample{
		Tick:  tick,
		Usage: o.noisyResources(trueUsage),
		Load:  load,
		// RT and SLA are measured at the gateway itself ("we measure the RT
		// on the datacenter domain"), so they carry no monitor distortion.
		RT:       rt,
		SLA:      clamp01(slaLvl),
		QueueLen: queueLen,
	}
	if o.vms == nil {
		o.vms = rings[Sample](o.nVM, o.window)
	}
	o.vms[i].push(s, o.window)
	return s
}

// ObservePM distorts the true aggregate usage of PM j, optionally adding
// a monitor CPU spike, and logs it.
func (o *Observer) ObservePM(tick, j int, trueUsage model.Resources) model.Resources {
	obs := o.noisyResources(trueUsage)
	if o.stream != nil && o.stream.Bool(o.noise.SpikeProb) {
		obs.CPUPct += o.stream.Uniform(0.3, 1.0) * o.noise.SpikeCPUPct
	}
	if o.pms == nil {
		o.pms = rings[model.Resources](o.nPM, o.window)
	}
	o.pms[j].push(obs, o.window)
	return obs
}

// vmRing returns slot i's window, or nil when it holds no samples.
func (o *Observer) vmRing(i int) *ring[Sample] {
	if i < 0 || i >= len(o.vms) || o.vms[i].n == 0 {
		return nil
	}
	return &o.vms[i]
}

// WindowAvgVM returns the mean observed usage of VM slot i over the
// window — the "resources it has used in the last 10 minutes" input to
// plain Best-Fit. ok is false when no samples exist yet.
func (o *Observer) WindowAvgVM(i int) (model.Resources, bool) {
	r := o.vmRing(i)
	if r == nil {
		return model.Resources{}, false
	}
	var sum model.Resources
	for k := 0; k < r.n; k++ {
		sum = sum.Add(r.at(k).Usage)
	}
	return sum.Scale(1 / float64(r.n)), true
}

// WindowAvgLoad returns the window-mean request rate and request-weighted
// per-request characteristics for VM slot i — the per-round gateway
// statistics a scheduler should size against rather than one noisy tick.
func (o *Observer) WindowAvgLoad(i int) (model.Load, bool) {
	r := o.vmRing(i)
	if r == nil {
		return model.Load{}, false
	}
	var agg model.Load
	for k := 0; k < r.n; k++ {
		l := r.at(k).Load
		if l.RPS <= 0 {
			continue
		}
		agg.BytesInReq += l.RPS * l.BytesInReq
		agg.BytesOutRq += l.RPS * l.BytesOutRq
		agg.CPUTimeReq += l.RPS * l.CPUTimeReq
		agg.RPS += l.RPS
	}
	if agg.RPS > 0 {
		agg.BytesInReq /= agg.RPS
		agg.BytesOutRq /= agg.RPS
		agg.CPUTimeReq /= agg.RPS
	}
	agg.RPS /= float64(r.n)
	return agg, true
}

// LastVM returns the most recent sample for VM slot i.
func (o *Observer) LastVM(i int) (Sample, bool) {
	r := o.vmRing(i)
	if r == nil {
		return Sample{}, false
	}
	return r.last(), true
}

// LastPM returns the most recent observed aggregate usage of PM j.
func (o *Observer) LastPM(j int) (model.Resources, bool) {
	if j < 0 || j >= len(o.pms) || o.pms[j].n == 0 {
		return model.Resources{}, false
	}
	return o.pms[j].last(), true
}

func (o *Observer) noisyResources(r model.Resources) model.Resources {
	return model.Resources{
		CPUPct: o.noisyScalar(r.CPUPct),
		// Memory is metered exactly by the hypervisor's accounting, unlike
		// sampled CPU; distort it at a fraction of the CPU noise.
		MemMB:  o.noisyScalarSD(r.MemMB, o.noise.RelSD*0.3),
		BWMbps: o.noisyScalar(r.BWMbps),
	}
}

func (o *Observer) noisyScalar(v float64) float64 {
	return o.noisyScalarSD(v, o.noise.RelSD)
}

func (o *Observer) noisyScalarSD(v, sd float64) float64 {
	if o.stream == nil || sd <= 0 || v == 0 {
		return v
	}
	return v * o.stream.LogNormal(-sd*sd/2, sd)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
