// Package serve turns the simulated multi-DC manager into a long-running
// placement service: an HTTP front door accepts VM offers, telemetry and
// fault reports, a single engine goroutine folds them into scheduling
// rounds, and every accepted event is journaled so a crashed service
// restores bit-identically.
//
// Concurrency model — the single-writer rule: exactly one goroutine (the
// loop) owns the engine, the lifecycle runner, the online learner and
// every other piece of mutable simulation state. HTTP handlers never
// touch any of it; they communicate through two bounded channels (events
// for data, ctl for commands) and read the immutable Snapshot the loop
// publishes after every tick. Backpressure is structural: the events
// channel's capacity IS the intake memory bound, and a full channel
// turns into an HTTP 429 at the front door, never into unbounded growth.
package serve

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Config assembles a placement service.
type Config struct {
	// Scenario names the preset fleet to serve on (default ServeBase).
	Scenario string
	Seed     uint64
	// QueueDepth bounds the intake queue; a full queue answers 429
	// (default 64). Events stay in the queue until the next tick barrier.
	QueueDepth int
	// RatePerTick/Burst put a token-bucket rate limiter in front of the
	// admission gates (0 = unlimited).
	RatePerTick float64
	Burst       float64
	// TickWorkers sets the engine's parallel tick width (ticks are
	// byte-identical at any count).
	TickWorkers int
	// TickEvery drives ticks from the wall clock; 0 means virtual time —
	// the replay mode, where POST /v1/tick is the only clock and every
	// run is bit-reproducible.
	TickEvery time.Duration
	// Dir is the state directory for the journal and checkpoints
	// ("" = no persistence).
	Dir string
	// Restore replays an existing journal in Dir before serving.
	Restore bool
	// CheckpointEvery writes a checkpoint every n ticks (0 = only on
	// demand and at shutdown).
	CheckpointEvery int
	// Bundle supplies the learned predictors for admission and
	// calibration (nil = capacity gate only, no calibration).
	Bundle *predict.Bundle
	// MinPredictedSLA enables the predicted-SLA admission gate.
	MinPredictedSLA float64
	// OnlineRetrainEvery enables online learning with that refit period in
	// ticks (0 = frozen models). Requires Bundle.
	OnlineRetrainEvery int
	// RetrainBudget bounds background refits (wall-clock mode only; in
	// virtual time refits run synchronously at tick barriers so runs stay
	// deterministic).
	RetrainBudget RetrainBudget
	// CalibWindow sizes the predicted-vs-observed SLA window (0 = 512).
	CalibWindow int
	// RequestTimeout bounds every control-plane request (tick, checkpoint,
	// shutdown) waiting on the engine loop (0 = 30s): a busy engine turns
	// into a timely 503, never a hung client.
	RequestTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default — profiling endpoints are opt-in).
	EnablePprof bool
	// TraceSample enables phase tracing: one tick in every TraceSample
	// is traced (0 = tracing off). Spans are served at GET /debug/trace
	// and, when TracePath is set, written there as Chrome trace-event
	// JSON at shutdown.
	TraceSample int
	TracePath   string
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// withDefaults fills the config's zero values.
func (c Config) withDefaults() Config {
	if c.Scenario == "" {
		c.Scenario = scenario.ServeBase
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// vmState is the loop's bookkeeping for one served VM.
type vmState struct {
	name      string
	id        model.VMID
	status    string
	admitTick int
	deferrals int
	host      model.PMID
	dc        model.DCID
	home      model.DCID
	class     trace.ServiceClass
	lastLoad  model.Load
	hasLoad   bool
}

// decision is one admission verdict of the current tick, in resolve
// order, for the placement log.
type decision struct {
	name    string
	verdict string
}

// ctl commands.
type ctlKind int

const (
	ctlTick ctlKind = iota
	ctlCheckpoint
	ctlShutdown
)

// ctlMsg is one control command. resp must be buffered (cap 1) so the
// loop can answer and move on even if the requester's context died.
type ctlMsg struct {
	kind ctlKind
	n    int
	resp chan ctlResp
}

type ctlResp struct {
	tick int
	err  error
}

// loop is the engine-owning goroutine's state. Only run() and the
// functions it calls may touch the non-atomic fields after Start.
type loop struct {
	cfg           Config
	deterministic bool // virtual time: ticks only via ctl, retrains sync

	sc      *scenario.Scenario
	world   *sim.World
	mgr     *core.Manager
	runner  *lifecycle.Runner
	faults  *lifecycle.FaultRunner
	overlay *Overlay
	online  *predict.Online
	bundle  *predict.Bundle // admission/calibration models (nil = none)
	calib   *Calibration
	retr    *Retrainer // wall-clock mode only
	journal *Journal
	bf      *sched.BestFit // the manager's scheduler, kept for round-phase spans
	met     *serveMetrics
	tr      *obs.Tracer // nil = tracing off

	events chan Event
	ctl    chan ctlMsg
	done   chan struct{}

	snap     atomic.Pointer[Snapshot]
	draining atomic.Bool
	seq      atomic.Int64 // server-side stamp for clients that omit Seq

	// Owner-goroutine state.
	vms        map[string]*vmState
	byID       map[model.VMID]*vmState
	live       []*vmState // admitted, not yet departed, in admission order
	nextID     int
	decisions  []decision
	batch      []Event
	prevRounds int
	dropTelem  int
	dupOffers  int
	restoring  bool
	fatalErr   error

	sinceCheckpoint    int
	lastCheckpointTick int
	logDigest          uint64
	econ               tickEcon // last tick's economics, kept so off-tick republish keeps them

	// lines is the placement log; the loop appends, /v1/log reads.
	linesMu sync.Mutex
	lines   []string

	// placeBuf is appendLog's reusable round-tick placement listing.
	placeBuf []placeEntry
}

// placeEntry is one VM's host on a round-tick log line.
type placeEntry struct {
	id   model.VMID
	host model.PMID
}

// newLoop builds the whole service stack (scenario, manager, learner,
// journal) and, when restoring, replays the journal through the same
// apply path live ticks use. It does not start the goroutine.
func newLoop(cfg Config) (*loop, error) {
	cfg = cfg.withDefaults()
	if cfg.OnlineRetrainEvery > 0 && cfg.Bundle == nil {
		return nil, fmt.Errorf("serve: OnlineRetrainEvery requires Bundle")
	}
	spec, err := scenario.Preset(cfg.Scenario, cfg.Seed)
	if err != nil {
		return nil, err
	}
	spec.TickWorkers = cfg.TickWorkers

	l := &loop{
		cfg:                cfg,
		deterministic:      cfg.TickEvery <= 0,
		events:             make(chan Event, cfg.QueueDepth),
		ctl:                make(chan ctlMsg),
		done:               make(chan struct{}),
		vms:                make(map[string]*vmState),
		byID:               make(map[model.VMID]*vmState),
		nextID:             spec.VMs,
		lastCheckpointTick: -1,
		logDigest:          fnvOffset,
	}
	if cfg.TraceSample > 0 {
		l.tr = obs.NewTracer(0, cfg.TraceSample)
	}
	spec.WrapWorkload = func(base sim.Workload) sim.Workload {
		sources := spec.DCs
		if g, ok := base.(*trace.Generator); ok {
			sources = g.Sources()
		}
		l.overlay = NewOverlay(base, sources)
		return l.overlay
	}
	sc, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	l.sc = sc
	l.world = sc.World

	if cfg.OnlineRetrainEvery > 0 {
		l.online, err = predict.NewOnline(cfg.Bundle, predict.DefaultTrainConfig(cfg.Seed), 0, cfg.OnlineRetrainEvery)
		if err != nil {
			return nil, err
		}
		l.bundle = l.online.Bundle
		if !l.deterministic {
			l.retr = NewRetrainer(cfg.RetrainBudget)
		}
	} else {
		l.bundle = cfg.Bundle
	}
	l.calib = NewCalibration(cfg.CalibWindow)

	adm := core.AdmissionPolicy{
		Bundle:          l.bundle,
		MinPredictedSLA: cfg.MinPredictedSLA,
	}
	if cfg.RatePerTick > 0 {
		adm.Rate = &core.RateLimit{RatePerTick: cfg.RatePerTick, Burst: cfg.Burst}
	}
	// Offers and faults arrive over HTTP, so serve runs both runners even
	// on a preset that scripts neither.
	if sc.Script == nil {
		sc.Script = &lifecycle.Script{}
	}
	if sc.Faults == nil {
		sc.Faults = &lifecycle.FaultScript{}
	}
	pol, err := sweep.PolicyByName("bf-ob")
	if err != nil {
		return nil, err
	}
	run, err := sweep.NewManagedRun(sc, pol, l.bundle, sweep.RunOpts{Admission: &adm})
	if err != nil {
		return nil, err
	}
	l.mgr, l.runner, l.faults = run.Manager, run.Lifecycle, run.Faults
	l.runner.OnResolve = l.onResolve
	l.bf = run.Scheduler.(*sched.BestFit)

	l.met = newServeMetrics(run.Registry)
	run.Registry.GaugeFunc("mdcsim_serve_queue_depth",
		"Events waiting in the bounded intake queue.",
		func() float64 { return float64(len(l.events)) })
	run.Registry.GaugeFunc("mdcsim_serve_queue_cap",
		"Intake queue capacity — the service's intake memory bound.",
		func() float64 { return float64(cap(l.events)) })
	// The durability gauges read the published snapshot (newLoop
	// publishes before any scrape can arrive).
	run.Registry.GaugeFunc("mdcsim_serve_journal_entries",
		"Entries in the write-ahead journal.",
		func() float64 { return float64(l.snap.Load().JournalEntries) })
	run.Registry.GaugeFunc("mdcsim_serve_journal_bytes",
		"Bytes in the write-ahead journal.",
		func() float64 { return float64(l.snap.Load().JournalBytes) })
	run.Registry.GaugeFunc("mdcsim_serve_last_checkpoint_tick",
		"Tick certified by the latest checkpoint (-1 before any).",
		func() float64 { return float64(l.snap.Load().LastCheckpoint) })

	if cfg.Dir != "" {
		journal, prior, err := OpenJournal(cfg.Dir)
		if err != nil {
			return nil, err
		}
		l.journal = journal
		if len(prior) > 0 && !cfg.Restore {
			journal.Close()
			return nil, fmt.Errorf("serve: %s already holds a journal (%d entries); pass Restore to resume it", cfg.Dir, len(prior))
		}
		if cfg.Restore {
			if err := l.restore(prior); err != nil {
				journal.Close()
				return nil, err
			}
		}
	} else if cfg.Restore {
		return nil, fmt.Errorf("serve: Restore requires Dir")
	}

	l.publish()
	return l, nil
}

// start launches the engine goroutine.
func (l *loop) start() { go l.run() }

// run is the engine goroutine: control commands always, wall-clock ticks
// when configured. Events are deliberately NOT selected on — they wait in
// the bounded queue until a tick barrier drains them, which is what makes
// the queue a real memory bound and the apply order canonical.
func (l *loop) run() {
	defer close(l.done)
	var tickC <-chan time.Time
	if l.cfg.TickEvery > 0 {
		tk := time.NewTicker(l.cfg.TickEvery)
		defer tk.Stop()
		tickC = tk.C
	}
	for {
		select {
		case m := <-l.ctl:
			switch m.kind {
			case ctlTick:
				var err error
				for i := 0; i < m.n && err == nil; i++ {
					err = l.tickOnce()
				}
				m.resp <- ctlResp{tick: l.world.Tick(), err: err}
			case ctlCheckpoint:
				m.resp <- ctlResp{tick: l.world.Tick(), err: l.checkpointNow()}
			case ctlShutdown:
				err := l.drainAndStop()
				m.resp <- ctlResp{tick: l.world.Tick(), err: err}
				return
			}
		case <-tickC:
			if err := l.tickOnce(); err != nil {
				l.cfg.Logf("serve: engine stopped: %v", err)
				tickC = nil // keep answering control; stop the clock
			}
		}
	}
}

// tickOnce is the tick barrier: drain the intake queue, sort the batch
// into canonical order, journal it durably, then execute. The drain takes
// len(events) — events racing in after the snapshot wait for the next
// barrier, so concurrent senders can never stretch a batch unboundedly.
func (l *loop) tickOnce() error {
	if l.fatalErr != nil {
		return l.fatalErr
	}
	t0 := time.Now()
	l.tr.SampleTick(l.world.Tick())
	n := len(l.events)
	l.batch = l.batch[:0]
	for i := 0; i < n; i++ {
		l.batch = append(l.batch, <-l.events)
	}
	sortEvents(l.batch)
	if l.journal != nil {
		for i := range l.batch {
			if err := l.journal.Append(entry{Kind: "ev", Event: &l.batch[i]}); err != nil {
				return l.fatal(err)
			}
		}
		if err := l.journal.Append(entry{Kind: "tick", Tick: l.world.Tick()}); err != nil {
			return l.fatal(err)
		}
		// Durability barrier: apply only what is journaled.
		f0 := time.Now()
		if err := l.journal.Flush(); err != nil {
			return l.fatal(err)
		}
		fdur := time.Since(f0)
		l.met.FsyncSeconds.Observe(fdur.Seconds())
		l.tr.Record("wal_fsync", "journal", tidJournal, f0, fdur, false)
	}
	if err := l.execTick(l.batch); err != nil {
		return l.fatal(err)
	}
	dur := time.Since(t0)
	l.met.TickSeconds.Observe(dur.Seconds())
	l.tr.Record("tick", "engine", tidEngine, t0, dur, false)
	return nil
}

// Trace timeline rows: one logical "thread" per subsystem so the Chrome
// trace viewer stacks engine ticks, journal fsyncs, scheduler phases and
// HTTP intake on separate tracks.
const (
	tidEngine  = 1
	tidJournal = 2
	tidSched   = 3
	tidHTTP    = 4
)

// execTick executes one tick over an already-canonical batch. It is the
// single code path shared by live ticks and journal restore — which is
// the whole crash-safety argument: a restored run re-executes the exact
// function the live run executed. Only the views wait while restoring:
// the snapshot publish and the periodic checkpoint.
func (l *loop) execTick(batch []Event) error {
	t := l.world.Tick()
	l.decisions = l.decisions[:0]
	for i := range batch {
		l.applyEvent(t, &batch[i])
	}
	st, err := l.mgr.Step()
	if err != nil {
		return err
	}
	l.met.EventsApplied.Add(uint64(len(batch)))
	if l.tr != nil && l.mgr.Rounds() > l.prevRounds {
		// A scheduling round ran inside mgr.Step; synthesize its phase
		// spans backwards from now out of the RoundStats nanoseconds.
		end := time.Now()
		rs := l.bf.LastRoundStats()
		for _, p := range [...]struct {
			name string
			ns   int64
		}{{"round_reduce", rs.ReduceNS}, {"round_score", rs.ScoreNS}, {"round_fill", rs.FillNS}} {
			d := time.Duration(p.ns)
			end = end.Add(-d)
			l.tr.Record(p.name, "sched", tidSched, end, d, false)
		}
	}
	if err := l.observe(t); err != nil {
		return err
	}
	l.refreshVMs()
	l.appendLog(t, &st)
	l.econ = tickEcon{
		unplaced: st.UnplacedVMs,
		avgSLA:   st.AvgSLA,
		revenue:  st.RevenueEUR,
		energy:   st.EnergyEUR,
		penalty:  st.PenaltyEUR,
		profit:   st.ProfitEUR,
	}
	if l.restoring {
		// A restore replays state only: nobody can read a snapshot before
		// newLoop publishes the restored one, and the crashed run's
		// checkpoint must stay as it left it.
		return nil
	}
	l.publish()
	l.sinceCheckpoint++
	if l.journal != nil && l.cfg.CheckpointEvery > 0 && l.sinceCheckpoint >= l.cfg.CheckpointEvery {
		if err := l.checkpointNow(); err != nil {
			return err
		}
	}
	return nil
}

// applyEvent folds one accepted event into the engine's input state.
// Events were validated at the front door; pathologies that only show up
// at apply time (duplicate names, telemetry for the departed) are counted
// and skipped, never errors — the journal must replay cleanly.
func (l *loop) applyEvent(tick int, e *Event) {
	switch e.Kind {
	case KindOffer:
		o := e.Offer
		if _, exists := l.vms[o.Name]; exists {
			l.dupOffers++
			return
		}
		id := model.VMID(l.nextID)
		l.nextID++
		class, _ := classByName(o.Class)
		vs := &vmState{
			name:      o.Name,
			id:        id,
			status:    StatusPending,
			admitTick: -1,
			host:      model.NoPM,
			dc:        -1,
			home:      model.DCID(o.HomeDC),
			class:     class,
		}
		l.vms[o.Name] = vs
		l.byID[id] = vs
		l.runner.Push(o.arrival(id, tick))
	case KindTelemetry:
		vs, ok := l.vms[e.Telemetry.Name]
		if !ok || vs.status == StatusRejected || vs.status == StatusDeparted {
			l.dropTelem++
			return
		}
		vs.lastLoad = e.Telemetry.load(vs.class)
		vs.hasLoad = true
		if l.overlay.Registered(vs.id) {
			l.overlay.SetLoad(vs.id, model.LocationID(vs.home), vs.lastLoad)
		}
	case KindFault:
		f := e.Fault
		l.faults.Push(lifecycle.FaultEvent{
			Tick: tick,
			Kind: faultKinds[f.Kind],
			PM:   model.PMID(f.PM),
			DC:   model.DCID(f.DC),
		})
	}
}

// onResolve is the lifecycle runner's admission hook: it keeps per-VM
// status current and registers admitted VMs' client load with the
// workload overlay. It runs on the loop goroutine, inside mgr.Step.
func (l *loop) onResolve(tick int, a *lifecycle.Arrival, d lifecycle.Decision) {
	vs := l.byID[a.Spec.ID]
	if vs == nil {
		return // a scripted arrival, not one of ours
	}
	switch d {
	case lifecycle.Admit:
		vs.status = StatusAdmitted
		vs.admitTick = tick
		l.live = append(l.live, vs)
		load := a.Offered
		if vs.hasLoad {
			load = vs.lastLoad
		}
		l.overlay.Register(vs.id, model.LocationID(vs.home), load)
		l.decisions = append(l.decisions, decision{vs.name, "admit"})
	case lifecycle.Defer:
		vs.deferrals++
		l.decisions = append(l.decisions, decision{vs.name, "defer"})
	case lifecycle.Reject:
		vs.status = StatusRejected
		l.decisions = append(l.decisions, decision{vs.name, "reject"})
	}
}

// observe runs the tick's learning duties: fold the fresh observations
// into the online window, retrain per mode, and record SLA calibration
// pairs. In virtual time (and during restore) retrains are synchronous so
// the run stays a pure function of the event stream; in wall-clock mode
// the retrainer works on a window snapshot in the background under the
// retry/backoff budget, and the loop adopts results at tick barriers.
func (l *loop) observe(tick int) error {
	if l.online != nil {
		l.online.Observe(l.world)
		if l.deterministic || l.restoring {
			did, err := l.online.MaybeRetrain(tick)
			if err != nil {
				return err
			}
			if did {
				l.met.RetrainKicked.Inc()
				l.met.RetrainAdopted.Inc()
			}
		} else {
			if res := l.retr.Poll(); res != nil {
				if res.err != nil {
					l.met.RetrainFailed.Inc()
					l.cfg.Logf("serve: retrain cycle failed, keeping previous models: %v", res.err)
				} else {
					l.met.RetrainAdopted.Inc()
					l.online.Adopt(res.bundle, tick)
				}
			}
			if l.online.ShouldRetrain(tick) {
				l.met.RetrainKicked.Inc()
				// Clone on THIS goroutine: the training data snapshot must
				// not race the window Observe keeps growing.
				win := l.online.Window.Clone()
				train := l.online.Train
				l.retr.Kick(tick, func(context.Context) (*predict.Bundle, error) {
					return predict.Train(win, train)
				})
			}
		}
	}
	l.recordCalibration()
	return nil
}

// recordCalibration logs one predicted-vs-observed SLA pair per placed
// VM: what the current models would predict for the load the gateway
// actually saw, against the fulfilment the gateway measured. Both sides
// are the processing component (transport is deterministic and would
// only flatter the correlation). The prediction itself runs when the
// window is next reported.
func (l *loop) recordCalibration() {
	if l.bundle == nil {
		return
	}
	b := l.bundle
	if l.online != nil {
		b = l.online.Current()
	}
	obs := l.world.Observer()
	for i := 0; i < l.world.NumVMs(); i++ {
		if !l.world.ActiveVM(i) {
			continue
		}
		spec := l.world.VMSpecAt(i)
		truth, ok := l.world.VMTruthByIndex(i)
		if !ok || truth.Host == model.NoPM || truth.Migrating {
			continue
		}
		sample, ok := obs.LastVM(i)
		if !ok {
			continue
		}
		memDef := predict.MemDeficitFrac(truth.Granted.MemMB, truth.Required.MemMB)
		l.calib.Record(b, sample.Load, truth.Granted.CPUPct, memDef, sample.QueueLen, spec.Terms.Fulfilment(sample.RT))
	}
}

// refreshVMs reconciles per-VM status with the engine after the tick:
// placements, fault evictions (back to admitted, awaiting re-home) and
// departures. It walks only the live VMs and compacts the departed out
// of that list, keeping admission order.
func (l *loop) refreshVMs() {
	kept := l.live[:0]
	for _, vs := range l.live {
		if _, live := l.world.LookupVM(vs.id); !live {
			vs.status = StatusDeparted
			vs.host, vs.dc = model.NoPM, -1
			l.overlay.Remove(vs.id)
			continue
		}
		kept = append(kept, vs)
		host := l.world.HostOf(vs.id)
		if host == model.NoPM {
			vs.status = StatusAdmitted
			vs.host, vs.dc = model.NoPM, -1
			continue
		}
		vs.status = StatusPlaced
		vs.host = host
		if j, ok := l.world.PMIndex(host); ok {
			vs.dc = l.world.PMSpecAt(j).DC
		}
	}
	l.live = kept
}

// appendLog emits the tick's deterministic placement-log line. The log is
// the replay oracle: two runs are "the same run" exactly when their logs
// are byte-identical, so everything on the line must be a pure function
// of the event stream — admission decisions in resolve order, and on
// round ticks the full placement sorted by VM ID.
func (l *loop) appendLog(tick int, st *sim.TickSummary) {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d act=%d unp=%d rounds=%d deg=%t sla=%.6f profit=%.6f",
		tick, l.world.NumActiveVMs(), st.UnplacedVMs, l.mgr.Rounds(), l.mgr.Degraded(),
		st.AvgSLA, st.ProfitEUR)
	if len(l.decisions) > 0 {
		b.WriteString(" dec=[")
		for i, d := range l.decisions {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(d.name)
			b.WriteByte(':')
			b.WriteString(d.verdict)
		}
		b.WriteByte(']')
	}
	if l.mgr.Rounds() > l.prevRounds {
		l.prevRounds = l.mgr.Rounds()
		// Walk the live slots, then sort by VM ID: slot order is not ID
		// order once a retired slot is reused.
		l.placeBuf = l.placeBuf[:0]
		for i := 0; i < l.world.NumVMs(); i++ {
			if !l.world.ActiveVM(i) {
				continue
			}
			e := placeEntry{id: l.world.VMSpecAt(i).ID, host: model.NoPM}
			if j := l.world.HostIndexOf(i); j >= 0 {
				e.host = l.world.PMSpecAt(j).ID
			}
			l.placeBuf = append(l.placeBuf, e)
		}
		slices.SortFunc(l.placeBuf, func(a, b placeEntry) int { return cmp.Compare(a.id, b.id) })
		b.WriteString(" place=[")
		for i, e := range l.placeBuf {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d", int(e.id), int(e.host))
		}
		b.WriteByte(']')
	}
	line := b.String()
	l.linesMu.Lock()
	l.lines = append(l.lines, line)
	l.linesMu.Unlock()
	l.logDigest = fnvAdd(fnvAdd(l.logDigest, []byte(line)), []byte{'\n'})
}

// logTail returns the log lines from index from (for /v1/log).
func (l *loop) logTail(from int) []string {
	l.linesMu.Lock()
	defer l.linesMu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(l.lines) {
		return nil
	}
	out := make([]string, len(l.lines)-from)
	copy(out, l.lines[from:])
	return out
}

func (l *loop) logLen() int {
	l.linesMu.Lock()
	defer l.linesMu.Unlock()
	return len(l.lines)
}

// tickEcon is the TickSummary-derived slice of the snapshot, retained so
// snapshots published between ticks (checkpoint, drain) keep reporting
// the latest tick's economics instead of zeros.
type tickEcon struct {
	unplaced                                 int
	avgSLA, revenue, energy, penalty, profit float64
}

// publish publishes a fresh snapshot: after every live tick, at startup
// (after any restore), and on checkpoint, drain and fatal error.
func (l *loop) publish() { l.snap.Store(l.baseSnapshot()) }

// baseSnapshot assembles the snapshot; the economics are the last
// tick's. The returned value is immutable once stored.
func (l *loop) baseSnapshot() *Snapshot {
	s := &Snapshot{
		Tick:             l.world.Tick(),
		Rounds:           l.mgr.Rounds(),
		ActiveVMs:        l.world.NumActiveVMs(),
		Degraded:         l.mgr.Degraded(),
		Draining:         l.draining.Load(),
		PendingAdmits:    l.mgr.PendingAdmits(),
		PendingRehomes:   l.mgr.PendingRehomes(),
		PendingDeferred:  l.runner.PendingDeferred() + l.runner.PendingPushed(),
		DroppedTelemetry: l.dropTelem,
		DuplicateOffers:  l.dupOffers,
		Churn:            l.runner.Stats(),
		Faults:           l.faults.Stats(),
		LogLines:         l.logLen(),
		LogDigest:        digestString(l.logDigest),
		LastCheckpoint:   l.lastCheckpointTick,
		VMs:              make(map[string]VMStatus, len(l.vms)),
	}
	if l.journal != nil {
		s.JournalEntries = l.journal.Entries()
		s.JournalBytes = l.journal.Bytes()
	}
	s.UnplacedVMs = l.econ.unplaced
	s.AvgSLA = l.econ.avgSLA
	s.RevenueEUR = l.econ.revenue
	s.EnergyEUR = l.econ.energy
	s.PenaltyEUR = l.econ.penalty
	s.ProfitEUR = l.econ.profit
	for name, vs := range l.vms {
		s.VMs[name] = VMStatus{
			Name:      name,
			ID:        int(vs.id),
			Status:    vs.status,
			Host:      int(vs.host),
			DC:        int(vs.dc),
			AdmitTick: vs.admitTick,
			Deferrals: vs.deferrals,
		}
	}
	if l.online != nil {
		os := l.online.Stats()
		s.Online = &os
	}
	if l.retr != nil {
		rs := l.retr.Stats()
		s.Retrain = &rs
	}
	if l.bundle != nil {
		cr := l.calib.Report()
		s.Calibration = &cr
	}
	if l.fatalErr != nil {
		s.Err = l.fatalErr.Error()
	}
	return s
}

// fatal latches the first engine error: the service stops ticking but
// keeps answering queries (with Err set) and control commands, so an
// operator can still inspect and shut it down cleanly.
func (l *loop) fatal(err error) error {
	if l.fatalErr == nil {
		l.fatalErr = err
		l.publish()
	}
	return err
}

// checkpointNow writes a checkpoint certifying the current journal
// prefix and placement-log position.
func (l *loop) checkpointNow() error {
	if l.journal == nil {
		return fmt.Errorf("serve: no state directory configured")
	}
	if err := l.journal.Flush(); err != nil {
		return l.fatal(err)
	}
	cp := Checkpoint{
		Scenario:    l.cfg.Scenario,
		Seed:        l.cfg.Seed,
		RoundTicks:  sweep.DefaultRoundTicks,
		TickWorkers: l.cfg.TickWorkers,
		Tick:        l.world.Tick(),
		Entries:     l.journal.Entries(),
		Digest:      l.journal.Digest(),
		LogLines:    l.logLen(),
		LogDigest:   l.logDigest,
	}
	if err := WriteCheckpoint(l.cfg.Dir, cp); err != nil {
		return l.fatal(err)
	}
	l.sinceCheckpoint = 0
	l.lastCheckpointTick = cp.Tick
	l.met.Checkpoints.Inc()
	l.publish() // health checks see the new certified tick immediately
	return nil
}

// drainAndStop is graceful shutdown: refuse new offers (the draining
// flag), then keep ticking until the intake queue and the pushed/deferred
// offer queues are empty and no admitted VM is unsettled (UnsettledAdmits:
// the tick after the round that placed the last one) — every accepted
// offer gets its admission ruling and placed VMs their final round —
// bounded by the deferral deadline plus two round periods, so a
// wedged fleet cannot hold shutdown hostage. Ends with a final checkpoint
// and journal close.
func (l *loop) drainAndStop() error {
	l.draining.Store(true)
	l.publish() // make the flag visible to health checks immediately
	maxTicks := lifecycle.DefaultMaxDeferTicks + 2*sweep.DefaultRoundTicks + 2
	for i := 0; i < maxTicks; i++ {
		if l.fatalErr != nil {
			break
		}
		if len(l.events) == 0 && l.runner.PendingPushed() == 0 &&
			l.runner.PendingDeferred() == 0 && l.mgr.UnsettledAdmits() == 0 {
			break
		}
		if err := l.tickOnce(); err != nil {
			break
		}
	}
	var err error
	if l.journal != nil {
		if l.fatalErr == nil {
			err = l.checkpointNow()
		}
		if cerr := l.journal.Close(); err == nil {
			err = cerr
		}
	}
	if l.tr != nil && l.cfg.TracePath != "" {
		if terr := writeTraceFile(l.cfg.TracePath, l.tr); terr != nil {
			l.cfg.Logf("serve: writing trace file: %v", terr)
			if err == nil {
				err = terr
			}
		}
	}
	l.publish()
	return err
}

// writeTraceFile dumps the tracer's ring as Chrome trace-event JSON.
func writeTraceFile(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// restore replays a journal through execTick — the exact live code path,
// minus the views: no snapshot is published and no checkpoint written
// until the replay ends (newLoop publishes once). The checkpoint, when
// present, gates compatibility (scenario, seed, round period;
// deliberately not TickWorkers) and cross-checks the replayed placement
// log against the digest the crashed run certified.
func (l *loop) restore(prior []entry) error {
	cp, hasCP, err := ReadCheckpoint(l.cfg.Dir)
	if err != nil {
		return err
	}
	if hasCP {
		if err := cp.Compatible(l.cfg.Scenario, l.cfg.Seed, sweep.DefaultRoundTicks); err != nil {
			return err
		}
		l.lastCheckpointTick = cp.Tick
	}
	l.restoring = true
	defer func() { l.restoring = false }()
	var batch []Event
	for i := range prior {
		en := &prior[i]
		switch en.Kind {
		case "ev":
			if en.Event == nil {
				return fmt.Errorf("serve: journal entry %d: ev without event", i+1)
			}
			if en.Event.Seq > l.seq.Load() {
				l.seq.Store(en.Event.Seq)
			}
			batch = append(batch, *en.Event)
		case "tick":
			if en.Tick != l.world.Tick() {
				return fmt.Errorf("serve: journal entry %d: tick %d but world is at %d", i+1, en.Tick, l.world.Tick())
			}
			// The journal already holds the canonical order; no re-sort, no
			// re-journal — execTick consumes the batch as recorded.
			if err := l.execTick(batch); err != nil {
				return fmt.Errorf("serve: replaying journal tick %d: %w", en.Tick, err)
			}
			batch = batch[:0]
		default:
			return fmt.Errorf("serve: journal entry %d: unknown kind %q", i+1, en.Kind)
		}
	}
	if hasCP {
		if len(l.lines) < cp.LogLines {
			return fmt.Errorf("serve: restored log has %d lines, checkpoint certified %d", len(l.lines), cp.LogLines)
		}
		d := fnvOffset
		for _, ln := range l.lines[:cp.LogLines] {
			d = fnvAdd(fnvAdd(d, []byte(ln)), []byte{'\n'})
		}
		if d != cp.LogDigest {
			return fmt.Errorf("serve: restored placement log diverges from checkpoint (digest %016x != %016x)", d, cp.LogDigest)
		}
	}
	// Resume the checkpoint cadence where the crashed run left it.
	l.sinceCheckpoint = l.world.Tick()
	if hasCP {
		l.sinceCheckpoint -= cp.Tick
	}
	l.cfg.Logf("serve: restored %d journal entries to tick %d", len(prior), l.world.Tick())
	return nil
}
