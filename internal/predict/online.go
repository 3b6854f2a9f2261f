package predict

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ml"
	"repro/internal/sim"
)

// Online implements the paper's future-work item 4: "the use of on-line
// learning methods, able to retrain continuously on recent data, to make
// the system react quickly to changes in either application behavior,
// hardware or middleware changes, or workload characteristics."
//
// It keeps a sliding window of recent monitored observations and
// periodically refits the whole bundle *in place*, so every decision maker
// holding the same *Bundle pointer picks up the new models at the next
// round. Observe/MaybeRetrain and reads of o.Bundle must come from the
// single management-loop goroutine; concurrent readers (serve-mode query
// handlers, background scorers) must go through Current instead, which
// hands out an immutable snapshot that a retrain atomically replaces
// rather than mutates.
type Online struct {
	// Bundle is the live model set being kept fresh. Its fields are
	// swapped in place on retrain, so it is owner-goroutine-only state.
	Bundle *Bundle
	// Window is the sliding observation store.
	Window *Harvest
	// MaxRows bounds each dataset; older rows fall off the front.
	MaxRows int
	// RetrainEvery is the refit period in ticks (0 disables).
	RetrainEvery int
	// Train configures the refits.
	Train TrainConfig

	// cur is the published read-only snapshot: a *Bundle whose fields are
	// never written after the Store, safe to use from any goroutine while
	// a retrain runs. Individual models are shared with o.Bundle — that is
	// sound because a fitted ml.Regressor is immutable at inference time.
	cur atomic.Pointer[Bundle]

	retrains        int
	lastRetrainTick int
	lastRetrainWall time.Duration
}

// NewOnline wraps a bundle with continuous retraining. The bundle is
// DEEP-COPIED so the caller's original models stay frozen (handy for
// with/without comparisons); read the live models through o.Bundle.
func NewOnline(b *Bundle, cfg TrainConfig, maxRows, retrainEvery int) (*Online, error) {
	clone, err := CloneBundle(b)
	if err != nil {
		return nil, err
	}
	if maxRows <= 0 {
		maxRows = 4000
	}
	if retrainEvery <= 0 {
		retrainEvery = 60
	}
	o := &Online{
		Bundle:          clone,
		Window:          NewHarvest(),
		MaxRows:         maxRows,
		RetrainEvery:    retrainEvery,
		Train:           cfg,
		lastRetrainTick: -1,
	}
	// Publish a snapshot that is a distinct struct from o.Bundle: the
	// in-place field swap on retrain must never touch a struct a reader
	// may be traversing.
	snap := *clone
	o.cur.Store(&snap)
	return o, nil
}

// Current returns the latest immutable bundle snapshot. Unlike o.Bundle,
// it is safe to call from any goroutine at any time — including while the
// owner goroutine is mid-retrain — and the returned bundle's fields never
// change. Hold the pointer for the duration of one decision (a scheduling
// round, an HTTP request) so the decision sees one consistent model set.
func (o *Online) Current() *Bundle { return o.cur.Load() }

// Retrains returns how many refits have happened.
func (o *Online) Retrains() int { return o.retrains }

// DatasetRows is one dataset's current sliding-window occupancy.
type DatasetRows struct {
	Name string
	Rows int
}

// OnlineStats is a point-in-time snapshot of the online learner's
// freshness — what a churn run reports so operators can tell whether the
// models have kept up with the fleet they are predicting for.
type OnlineStats struct {
	// Retrains counts completed refits.
	Retrains int
	// LastRetrainTick is the tick of the most recent refit (-1 if none).
	LastRetrainTick int
	// LastRetrainWall is the wall-clock duration of the most recent refit.
	LastRetrainWall time.Duration
	// WindowRows lists each dataset's rows currently in the sliding
	// window, in the harvest's canonical dataset order.
	WindowRows []DatasetRows
}

// Stats snapshots the learner's freshness counters.
func (o *Online) Stats() OnlineStats {
	names := [...]string{"VM CPU", "VM MEM", "VM IN", "VM OUT", "PM CPU", "VM RT", "VM SLA"}
	s := OnlineStats{
		Retrains:        o.retrains,
		LastRetrainTick: o.lastRetrainTick,
		LastRetrainWall: o.lastRetrainWall,
		WindowRows:      make([]DatasetRows, 0, len(names)),
	}
	for i, d := range o.Window.datasets() {
		s.WindowRows = append(s.WindowRows, DatasetRows{Name: names[i], Rows: d.Len()})
	}
	return s
}

// Observe folds the current monitored tick into the sliding window.
func (o *Online) Observe(world *sim.World) {
	o.Window.RecordTick(world)
	for _, d := range o.Window.datasets() {
		tail(d, o.MaxRows)
	}
}

// MaybeRetrain refits the bundle when ShouldRetrain says a refit is due
// and installs it through Adopt. It reports whether a refit happened.
func (o *Online) MaybeRetrain(tick int) (bool, error) {
	if !o.ShouldRetrain(tick) {
		return false, nil
	}
	start := time.Now()
	fresh, err := Train(o.Window, o.Train)
	if err != nil {
		return false, fmt.Errorf("predict: online retrain at tick %d: %w", tick, err)
	}
	o.lastRetrainWall = time.Since(start)
	o.Adopt(fresh, tick)
	return true, nil
}

// ShouldRetrain reports whether a refit is due at this tick under the
// learner's period and data floor — MaybeRetrain's precondition, exposed
// so callers that train elsewhere (a background retrainer working on a
// window snapshot) gate their kicks identically.
func (o *Online) ShouldRetrain(tick int) bool {
	if o.RetrainEvery <= 0 || tick == 0 || tick%o.RetrainEvery != 0 {
		return false
	}
	for _, d := range o.Window.datasets() {
		if d.Len() < 50 {
			return false
		}
	}
	return true
}

// Adopt installs a freshly trained bundle — MaybeRetrain's own refit or a
// background retrainer's result. It publishes the snapshot for concurrent
// readers first (fresh must not be mutated after this call), so Current
// callers flip from the old snapshot to the new one atomically, then swaps
// the models in place so single-goroutine holders of o.Bundle (the
// experiment loops' estimators) see the refit. Call it from the owner
// goroutine only.
func (o *Online) Adopt(fresh *Bundle, tick int) {
	o.lastRetrainTick = tick
	o.cur.Store(fresh)
	o.Bundle.VMCPU = fresh.VMCPU
	o.Bundle.VMMem = fresh.VMMem
	o.Bundle.VMIn = fresh.VMIn
	o.Bundle.VMOut = fresh.VMOut
	o.Bundle.PMCPU = fresh.PMCPU
	o.Bundle.VMRT = fresh.VMRT
	o.Bundle.VMSLA = fresh.VMSLA
	o.Bundle.Reports = fresh.Reports
	o.retrains++
}

// datasets lists the harvest's datasets for uniform windowing.
func (h *Harvest) datasets() []*ml.Dataset {
	return []*ml.Dataset{h.VMCPU, h.VMMem, h.VMIn, h.VMOut, h.PMCPU, h.VMRT, h.VMSLA}
}

// tail truncates a dataset to its most recent n rows by re-slicing past
// the oldest ones. Nothing is copied here: the next append that outgrows
// the backing array moves only the live rows into a new one, so the dead
// prefix is dropped then and memory stays within a constant factor of n.
// Views taken before the cut never see their elements overwritten.
func tail(d *ml.Dataset, n int) {
	if d.Len() <= n {
		return
	}
	cut := d.Len() - n
	d.X = d.X[cut:]
	d.Y = d.Y[cut:]
}

// CloneBundle deep-copies a bundle through its serialized form, so the
// copy's models share no state with the original.
func CloneBundle(b *Bundle) (*Bundle, error) {
	data, err := json.Marshal(b)
	if err != nil {
		return nil, err
	}
	var out Bundle
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
