package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Serve-live drives the serve-base placement service through its real
// HTTP mux on an httptest server, in a closed loop over one keep-alive
// connection: every request waits for the previous answer. The
// connection is in memory, not TCP loopback: kernel loopback made request
// latency swing by about 20% between runs on a shared host, and it is not
// the service's code. At
// serve-base scale a wall-clock service idles for >99% of each 1 s tick,
// and a 2-core load generator cannot offer a rate that moves open-loop
// latency, so the loop drives virtual time itself with POST /v1/tick.
// Each tick sends 2 offers (lifetimes 30-89 ticks) and 8 telemetry
// updates, a host crash every 50 ticks and its repair 10 ticks later,
// then the tick barrier. After each round tick it polls every offer not
// yet placed; every 100 ticks it reads all placements, /healthz and the
// last 100 log lines. The journal lives on disk with a checkpoint every
// 200 ticks; the trained bundle turns calibration on (SLA gate off).
//
// Serve-restore replays the journal such a run left: the live tick path
// without HTTP or journal writes.
const (
	serveLiveTicks        = 1000
	serveRestoreTicks     = 2000
	serveCheckpointEvery  = 200
	serveOffersPerTick    = 2
	serveTelemetryPerTick = 8
	serveFaultEvery       = 50
	serveRepairAfter      = 10
	serveFullReadEvery    = 100
	serveRoundTicks       = 10
	serveHosts            = 8  // serve-base: 4 DCs x 2 hosts
	serveDCs              = 4  // serve-base
	serveRecentOffers     = 80 // telemetry targets: the last 40 ticks' offers
)

var serveClasses = []string{"file-hosting", "image-gallery", "dynamic-web"}

// serveConfig is the service configuration of both serve workloads.
func (r *run) serveConfig(dir string, traced bool) serve.Config {
	c := serve.Config{Seed: r.cfg.seed, Dir: dir, CheckpointEvery: serveCheckpointEvery, Bundle: r.bundle}
	if traced {
		c.TraceSample = 1
	}
	return c
}

// liveClient is the closed-loop load generator of one live pass.
type liveClient struct {
	r       *run
	s       *sample
	tr      *tracer
	root    int
	base    string
	hc      *http.Client
	rng     *rand.Rand
	pending []string // offers not yet placed, rejected or departed
	recent  []string // telemetry targets, oldest first
}

// call sends one request, times it from send to the last body byte, and
// decodes a JSON answer into out. Any status other than want fails the
// call.
func (c *liveClient) call(kind, method, path string, body, out any, want int, req string) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	hreq, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	id := c.tr.begin("serve."+kind, "serve", c.root, req)
	t0 := time.Now()
	resp, err := c.hc.Do(hreq)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	c.tr.end(id)
	c.r.attempted++
	c.s.op(d)
	c.s.lat[kind] = append(c.s.lat[kind], ms(d))
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err == nil && out != nil {
		err = json.Unmarshal(raw, out)
	}
	if err != nil {
		c.r.failed++
	}
	return err
}

// tick runs one closed-loop tick: events, the barrier, and the reads
// that follow it.
func (c *liveClient) tick(t int) error {
	for k := 0; k < serveOffersPerTick; k++ {
		name := fmt.Sprintf("vm-%d-%d", t, k)
		o := serve.OfferReq{
			Name:          name,
			Class:         serveClasses[c.rng.IntN(len(serveClasses))],
			HomeDC:        c.rng.IntN(serveDCs),
			LifetimeTicks: 30 + c.rng.IntN(60),
		}
		if err := c.call("offer", "POST", "/v1/offers", o, nil, http.StatusAccepted, name); err != nil {
			return err
		}
		c.pending = append(c.pending, name)
		c.recent = append(c.recent, name)
		if len(c.recent) > serveRecentOffers {
			c.recent = c.recent[1:]
		}
	}
	for k := 0; k < serveTelemetryPerTick; k++ {
		name := c.recent[c.rng.IntN(len(c.recent))]
		tel := serve.TelemetryReq{Name: name, RPS: 5 + 40*c.rng.Float64()}
		if err := c.call("telemetry", "POST", "/v1/telemetry", tel, nil, http.StatusAccepted, name); err != nil {
			return err
		}
	}
	if t > 0 && t%serveFaultEvery == 0 {
		f := serve.FaultEventReq{Kind: "crash", PM: (t / serveFaultEvery) % serveHosts}
		if err := c.call("fault", "POST", "/v1/faults", f, nil, http.StatusAccepted, strconv.Itoa(t)); err != nil {
			return err
		}
	}
	if t > serveFaultEvery && t%serveFaultEvery == serveRepairAfter {
		f := serve.FaultEventReq{Kind: "repair", PM: (t / serveFaultEvery) % serveHosts}
		if err := c.call("fault", "POST", "/v1/faults", f, nil, http.StatusAccepted, strconv.Itoa(t)); err != nil {
			return err
		}
	}
	kind := "tick"
	if (t+1)%serveCheckpointEvery == 0 {
		kind = "checkpoint_tick"
	}
	if err := c.call(kind, "POST", "/v1/tick", map[string]int{"n": 1}, nil, http.StatusOK, strconv.Itoa(t)); err != nil {
		return err
	}
	if t > 0 && t%serveRoundTicks == 0 {
		kept := c.pending[:0]
		for _, name := range c.pending {
			var vs serve.VMStatus
			if err := c.call("read_vm", "GET", "/v1/placements?name="+name, nil, &vs, http.StatusOK, name); err != nil {
				return err
			}
			if vs.Status == serve.StatusPending || vs.Status == serve.StatusAdmitted {
				kept = append(kept, name)
			}
		}
		c.pending = kept
	}
	if (t+1)%serveFullReadEvery == 0 {
		if err := c.call("read_all", "GET", "/v1/placements", nil, nil, http.StatusOK, strconv.Itoa(t)); err != nil {
			return err
		}
		var h serve.Snapshot
		if err := c.call("read_health", "GET", "/healthz", nil, &h, http.StatusOK, strconv.Itoa(t)); err != nil {
			return err
		}
		from := strconv.Itoa(t + 1 - serveFullReadEvery)
		if err := c.call("read_log", "GET", "/v1/log?from="+from, nil, nil, http.StatusOK, strconv.Itoa(t)); err != nil {
			return err
		}
	}
	return nil
}

// liveRun runs ticks closed-loop ticks against a fresh service with its
// state in dir, fills s, and returns the service's final placement-log
// digest: at the end of the loop, or after a clean shutdown.
func (r *run) liveRun(s *sample, tr *tracer, dir string, ticks int, afterShutdown bool) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	started := time.Now()
	srv, err := serve.New(r.serveConfig(dir, tr != nil))
	if err != nil {
		return "", err
	}
	pl := newPipeListener()
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = pl
	ts.Start()
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DialContext: pl.dial}
	defer func() {
		transport.CloseIdleConnections()
		ts.Close()
	}()
	c := &liveClient{
		r: r, s: s, tr: tr, base: ts.URL,
		hc:  &http.Client{Transport: transport},
		rng: rand.New(rand.NewPCG(r.cfg.seed, 0x5e17e)),
	}
	c.root = tr.begin("bench.pass", "bench", 0, strconv.Itoa(len(r.samples)))
	s.startWindow()
	t0 := time.Now()
	for t := 0; t < ticks; t++ {
		t1 := time.Now()
		if err := c.tick(t); err != nil {
			stop(srv)
			return "", fmt.Errorf("tick %d: %w", t, err)
		}
		s.parts = append(s.parts, time.Since(t1).Seconds())
	}
	s.wall = time.Since(t0)
	s.stopWindow()
	tr.end(c.root)
	s.ticks = ticks

	snap := srv.Snapshot()
	s.digest = snap.LogDigest
	fams, err := scrape(srv.Handler(), "/metrics")
	if err != nil {
		stop(srv)
		return "", err
	}
	r.liveValues(s, snap, fams)
	if err := mergeTrace(tr, srv, started); err != nil {
		stop(srv)
		return "", err
	}
	if err := stop(srv); err != nil {
		return "", err
	}
	if afterShutdown {
		return srv.Snapshot().LogDigest, nil
	}
	return snap.LogDigest, nil
}

// liveValues derives a live pass's per-layer and detail values from the
// client's timings, the final snapshot and the service's /metrics.
func (r *run) liveValues(s *sample, snap *serve.Snapshot, fams map[string]obs.Family) {
	sum := func(kinds ...string) float64 {
		var t float64
		for _, k := range kinds {
			for _, v := range s.lat[k] {
				t += v
			}
		}
		return t
	}
	wall := ms(s.wall)
	ticks := float64(s.ticks)
	acks, barriers := sum("offer", "telemetry", "fault"), sum("tick", "checkpoint_tick")
	s.vals["serve.ack_frac"] = acks / wall
	s.vals["serve.barrier_frac"] = barriers / wall
	s.vals["serve.read_frac"] = sum("read_vm", "read_all", "read_health", "read_log") / wall

	loopN, loopS := histogram(fams, "mdcsim_serve_tick_seconds")
	_, flushS := histogram(fams, "mdcsim_serve_wal_fsync_seconds")
	engineS, roundS := engineValues(s, fams)
	s.vals["core.glue_ms_per_tick"] = (loopS - flushS - engineS - roundS) * 1e3 / ticks
	if loopS > 0 {
		s.vals["serve.wal_flush_frac"] = flushS / loopS
		s.vals["serve.loop_tick_ms"] = loopS * 1e3 / float64(max(loopN, 1))
		s.vals["serve.wal_flush_ms"] = flushS * 1e3 / float64(max(loopN, 1))
	}
	if barriers > 0 {
		s.vals["serve.barrier_overhead_frac"] = (barriers - loopS*1e3) / barriers
	}
	if b := s.lat["tick"]; len(b) >= 20 {
		tenth := len(b) / 10
		s.vals["serve.barrier_growth"] = median(b[len(b)-tenth:]) / median(b[:tenth])
	}
	snapshotValues(s, snap)
}

// snapshotValues fills the per-layer values read off the service's final
// snapshot.
func snapshotValues(s *sample, snap *serve.Snapshot) {
	s.vals["serve.snapshot_vms"] = float64(len(snap.VMs))
	s.vals["serve.journal_bytes_per_tick"] = float64(snap.JournalBytes) / float64(max(s.ticks, 1))
	if snap.Churn.Offered > 0 {
		s.vals["serve.admit_frac"] = float64(snap.Churn.Admitted) / float64(snap.Churn.Offered)
	}
}

// mergeTrace adds the service's own spans to a traced pass's trace.
func mergeTrace(tr *tracer, srv *serve.Server, started time.Time) error {
	if tr == nil {
		return nil
	}
	data, err := get(srv.Handler(), "/debug/trace")
	if err != nil {
		return err
	}
	return tr.mergeServer(data, started)
}

// stop shuts a service down: drain, final checkpoint, journal closed.
func stop(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return srv.Shutdown(ctx)
}

// engineValues fills the engine and scheduler per-layer values of a pass
// from the service's /metrics and returns the engine's and the rounds'
// total seconds.
func engineValues(s *sample, fams map[string]obs.Family) (engineS, roundS float64) {
	engineN, engineS := histogram(fams, "mdcsim_engine_tick_seconds")
	_, roundS = histogram(fams, "mdcsim_sched_round_seconds")
	rounds := counter(fams, "mdcsim_sched_rounds_total")
	perRound := func(hist string) float64 {
		_, sec := histogram(fams, hist)
		return sec * 1e3 / max(rounds, 1)
	}
	s.vals["sim.tick_ms"] = engineS * 1e3 / float64(max(engineN, 1))
	s.vals["sim.migrations_per_tick"] = counter(fams, "mdcsim_engine_migrations_total") / float64(max(engineN, 1))
	s.vals["sched.round_ms"] = roundS * 1e3 / max(rounds, 1)
	s.vals["sched.fill_ms"] = perRound("mdcsim_sched_fill_seconds")
	s.vals["sched.score_ms"] = perRound("mdcsim_sched_score_seconds")
	s.vals["sched.reduce_ms"] = perRound("mdcsim_sched_reduce_seconds")
	s.vals["sched.candidates_per_round"] = counter(fams, "mdcsim_sched_candidates_scored_total") / max(rounds, 1)
	s.vals["sched.truncated_per_round"] = counter(fams, "mdcsim_sched_shortlist_truncated_total") / max(rounds, 1)
	return engineS, roundS
}

// get fetches a path from a handler in process, without the network.
func get(h http.Handler, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// scrape parses the service's Prometheus exposition.
func scrape(h http.Handler, path string) (map[string]obs.Family, error) {
	data, err := get(h, path)
	if err != nil {
		return nil, err
	}
	list, err := obs.ParseText(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	out := make(map[string]obs.Family, len(list))
	for _, f := range list {
		out[f.Name] = f
	}
	return out, nil
}

func histogram(fams map[string]obs.Family, name string) (uint64, float64) {
	f := fams[name]
	n, sum, _ := f.Histogram()
	return n, sum
}

func counter(fams map[string]obs.Family, name string) float64 {
	f := fams[name]
	v, _ := f.Value()
	return v
}

func runServeLive(r *run) error {
	ticks := serveLiveTicks
	if r.cfg.quick {
		ticks = 100
	}
	if err := r.setup(r.serviceSetup); err != nil {
		return err
	}
	err := r.passes(func(s *sample, tr *tracer) error {
		dir := filepath.Join(r.dir, fmt.Sprintf("live-%d", len(r.samples)))
		defer os.RemoveAll(dir)
		_, err := r.liveRun(s, tr, dir, ticks, false)
		return err
	})
	if err != nil {
		return err
	}
	r.latency("event_ack_ms", r.pooled("offer", "telemetry", "fault"), 99)
	r.latency("barrier_ms", r.pooled("tick", "checkpoint_tick"), 99)
	r.latency("query_ms", r.pooled("read_vm", "read_all", "read_health", "read_log"))
	for kind, name := range map[string]string{
		"offer": "serve.ack_offer_ms", "telemetry": "serve.ack_telemetry_ms", "fault": "serve.ack_fault_ms",
		"read_vm": "serve.read_vm_ms", "read_all": "serve.read_all_ms", "read_health": "serve.read_health_ms",
		"read_log": "serve.read_log_ms", "checkpoint_tick": "serve.checkpoint_barrier_ms",
	} {
		if xs := r.pooled(kind); len(xs) > 0 {
			r.details[name] = median(xs)
			r.counts[name] = len(xs)
		}
	}
	r.detailMedian("serve.loop_tick_ms")
	r.detailMedian("serve.wal_flush_ms")
	r.checkDigests()
	return nil
}

// serviceSetup is one serve set-up after training: build a fresh service
// on an empty state directory, then shut it down.
func (r *run) serviceSetup() error {
	dir, err := os.MkdirTemp(r.dir, "setup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := serve.New(r.serveConfig(dir, false))
	if err != nil {
		return err
	}
	return stop(srv)
}

func runRestore(r *run) error {
	ticks := serveRestoreTicks
	if r.cfg.quick {
		ticks = 200
	}
	if err := r.setup(r.serviceSetup); err != nil {
		return err
	}
	// The input: the journal and final checkpoint of a live run, and the
	// placement-log digest it ended with, which every restore must
	// reproduce.
	src := filepath.Join(r.dir, "journal")
	t0 := time.Now()
	want, err := r.liveRun(newSample(), nil, src, ticks, true)
	if err != nil {
		return fmt.Errorf("writing the journal: %w", err)
	}
	r.details["serve.journal_write_s"] = time.Since(t0).Seconds()
	err = r.passes(func(s *sample, tr *tracer) error {
		dst := filepath.Join(r.dir, fmt.Sprintf("restore-%d", len(r.samples)))
		defer os.RemoveAll(dst)
		if err := copyDir(src, dst); err != nil {
			return err
		}
		root := tr.begin("bench.pass", "bench", 0, strconv.Itoa(len(r.samples)))
		id := tr.begin("serve.restore", "serve", root, strconv.Itoa(len(r.samples)))
		s.startWindow()
		srv, d, started, err := r.restore(dst, tr != nil)
		s.stopWindow()
		tr.end(id)
		tr.end(root)
		if err != nil {
			return err
		}
		defer stop(srv)
		snap := srv.Snapshot()
		s.digest = snap.LogDigest
		r.check(s.digest == want, "restore reproduced log digest %s, the live run ended at %s", s.digest, want)
		s.op(d)
		s.parts = []float64{d.Seconds()}
		s.wall = d
		s.ticks = snap.Tick
		fams, err := scrape(srv.Handler(), "/metrics")
		if err != nil {
			return err
		}
		engineS, roundS := engineValues(s, fams)
		s.vals["core.glue_ms_per_tick"] = (d.Seconds() - engineS - roundS) * 1e3 / float64(max(s.ticks, 1))
		snapshotValues(s, snap)
		s.vals["serve.restore_entries"] = float64(snap.JournalEntries)
		if err := mergeTrace(tr, srv, started); err != nil {
			return err
		}
		read, err := journalReadTime(src, dst+"-spare")
		if err != nil {
			return err
		}
		s.vals["serve.journal_read_ms"] = ms(read)
		s.vals["serve.journal_read_frac"] = read.Seconds() / d.Seconds()
		s.vals["serve.replay_us_per_entry"] = float64(d-read) / 1e3 / float64(max(snap.JournalEntries, 1))
		return nil
	})
	if err != nil {
		return err
	}
	r.detailMedian("serve.journal_read_ms")
	r.detailMedian("serve.replay_us_per_entry")
	r.detailMedian("serve.restore_entries")
	var restores []float64
	for _, s := range r.untraced() {
		restores = append(restores, s.wall.Seconds())
	}
	r.details["restore_s"] = median(restores)
	r.checkDigests()
	return nil
}

// restore times serve.New restoring the state in dir. The caller shuts
// the service down.
func (r *run) restore(dir string, traced bool) (*serve.Server, time.Duration, time.Time, error) {
	cfg := r.serveConfig(dir, traced)
	cfg.Restore = true
	started := time.Now()
	srv, err := serve.New(cfg)
	d := time.Since(started)
	r.attempted++
	if err != nil {
		r.failed++
		return nil, d, started, fmt.Errorf("restore: %w", err)
	}
	return srv, d, started, nil
}

// journalReadTime times serve.OpenJournal on a spare copy of the state
// directory (OpenJournal may truncate a torn tail, so never on src).
func journalReadTime(src, spare string) (time.Duration, error) {
	defer os.RemoveAll(spare)
	if err := copyDir(src, spare); err != nil {
		return 0, err
	}
	t0 := time.Now()
	j, _, err := serve.OpenJournal(spare)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, j.Close()
}

// copyDir copies the regular files of a state directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
