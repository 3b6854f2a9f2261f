package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// runServe drives the serve subcommand: the manager as a long-lived
// HTTP placement service (wall-clock mode), a deterministic replay of a
// request script (-replay), or a one-shot health/calibration report
// against a running instance (-report).
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: mdcsim serve [flags]")
		fmt.Fprintln(fs.Output(), "       mdcsim serve -replay script.json [flags]")
		fmt.Fprintln(fs.Output(), "       mdcsim serve -report -addr host:port")
		fs.PrintDefaults()
	}
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (or, with -report, the server to query)")
	scenarioName := fs.String("scenario", scenario.ServeBase, "scenario preset to serve on")
	seed := fs.Uint64("seed", 42, "root seed for all stochastic components")
	queueDepth := fs.Int("queue-depth", 64, "intake queue bound; a full queue answers 429")
	roundTicks := fs.Int("round-ticks", 10, "scheduling round period in ticks")
	rate := fs.Float64("rate", 0, "token-bucket admission rate per tick (0 = unlimited)")
	burst := fs.Float64("burst", 0, "token-bucket burst size (0 = rate)")
	tickEvery := fs.Duration("tick-every", time.Second, "wall-clock tick period (serve mode)")
	dir := fs.String("dir", "", "state directory for journal + checkpoints (empty = no persistence)")
	restore := fs.Bool("restore", false, "replay the journal in -dir before serving")
	checkpointEvery := fs.Int("checkpoint-every", 0, "write a checkpoint every N ticks (0 = on demand + at shutdown)")
	train := fs.Bool("train", false, "train the SLA predictors at startup (enables the ML gate and calibration)")
	minSLA := fs.Float64("min-sla", 0, "predicted-SLA admission floor (with -train)")
	retrainEvery := fs.Int("retrain-every", 0, "online refit period in ticks (with -train; 0 = frozen models)")
	replayPath := fs.String("replay", "", "drive this replay script instead of serving, print the placement log")
	workers := fs.Int("workers", 4, "concurrent replay senders (with -replay)")
	report := fs.Bool("report", false, "query a running server's /healthz and /metrics and print the report")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON file at shutdown (enables tracing)")
	traceSample := fs.Int("trace-sample", 0, "trace one tick in every N (0 = off unless -trace, which implies 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *report {
		return serveReport(*addr)
	}
	if (*minSLA > 0 || *retrainEvery > 0) && !*train {
		return fmt.Errorf("-min-sla and -retrain-every require -train")
	}

	cfg := serve.Config{
		Scenario:        *scenarioName,
		Seed:            *seed,
		QueueDepth:      *queueDepth,
		RoundTicks:      *roundTicks,
		RatePerTick:     *rate,
		Burst:           *burst,
		TickEvery:       *tickEvery,
		Dir:             *dir,
		Restore:         *restore,
		CheckpointEvery: *checkpointEvery,
		MinPredictedSLA: *minSLA,
		EnablePprof:     *pprofOn,
		TracePath:       *tracePath,
		TraceSample:     *traceSample,
		Logf:            log.Printf,
	}
	if cfg.TracePath != "" && cfg.TraceSample <= 0 {
		cfg.TraceSample = 1
	}
	if *train {
		fmt.Fprintln(os.Stderr, "training SLA predictors...")
		b, err := sweep.TrainedBundle(*seed)
		if err != nil {
			return err
		}
		cfg.Bundle = b
		cfg.OnlineRetrainEvery = *retrainEvery
	}
	if *replayPath != "" {
		cfg.TickEvery = 0 // replay is virtual time by definition
		return serveReplay(cfg, *replayPath, *addr, *workers)
	}
	return serveForever(cfg, *addr)
}

// serveForever is the long-lived mode: listen, tick on the wall clock,
// and on SIGINT/SIGTERM drain in-flight offers, checkpoint and exit 0.
func serveForever(cfg serve.Config, addr string) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("serving %s on http://%s (tick every %s)", cfg.Scenario, ln.Addr(), cfg.TickEvery)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("signal received: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		return err
	}
	snap := s.Snapshot()
	log.Printf("drained clean at tick %d: %d VMs active, log digest %s",
		snap.Tick, snap.ActiveVMs, snap.LogDigest)
	return nil
}

// serveReplay starts the service in virtual time, drives the script
// through real HTTP, prints the placement log and its digest, and
// drains. The same script and seed print the same bytes, every run.
func serveReplay(cfg serve.Config, path, addr string, workers int) error {
	rs, err := serve.LoadReplayScript(path)
	if err != nil {
		return err
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln) //nolint:errcheck // torn down via Close below
	defer hs.Close()

	c := &serve.Client{Base: "http://" + ln.Addr().String()}
	lines, err := c.Replay(rs, workers)
	if err != nil {
		return err
	}
	for _, line := range lines {
		fmt.Println(line)
	}
	if err := c.Shutdown(); err != nil {
		return err
	}
	snap := s.Snapshot()
	fmt.Printf("log digest %s over %d lines\n", snap.LogDigest, snap.LogLines)
	return nil
}

// serveReport fetches /healthz from a running server and prints the
// operational summary: service state, backlog, churn, and — when the ML
// loop is live — the online learner's freshness and the calibration
// window's MAPE / Pearson r.
func serveReport(addr string) error {
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s: %s", resp.Status, body)
	}
	var h struct {
		Status   string `json:"status"`
		QueueLen int    `json:"queue_len"`
		QueueCap int    `json:"queue_cap"`
		serve.Snapshot
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return err
	}
	fmt.Printf("status %s | tick %d | rounds %d | queue %d/%d\n",
		h.Status, h.Tick, h.Rounds, h.QueueLen, h.QueueCap)
	fmt.Printf("fleet: %d active VMs, %d unplaced | pending: %d admits %d rehomes %d deferred | degraded %t\n",
		h.ActiveVMs, h.UnplacedVMs, h.PendingAdmits, h.PendingRehomes, h.PendingDeferred, h.Degraded)
	fmt.Printf("churn: offered %d admitted %d rejected %d deferred %d departed %d | dropped telemetry %d, duplicate offers %d\n",
		h.Churn.Offered, h.Churn.Admitted, h.Churn.Rejected, h.Churn.Deferrals, h.Churn.Departed,
		h.DroppedTelemetry, h.DuplicateOffers)
	fmt.Printf("economics: sla %.4f | revenue %.3f€ energy %.3f€ penalties %.3f€ profit %.3f€\n",
		h.AvgSLA, h.RevenueEUR, h.EnergyEUR, h.PenaltyEUR, h.ProfitEUR)
	if h.Online != nil {
		fmt.Printf("online: %d retrains, last at tick %d (%s)\n",
			h.Online.Retrains, h.Online.LastRetrainTick, h.Online.LastRetrainWall.Round(time.Millisecond))
	}
	if h.Retrain != nil {
		fmt.Printf("retrainer: %d cycles, %d attempts, %d successes, %d give-ups\n",
			h.Retrain.Cycles, h.Retrain.Attempts, h.Retrain.Successes, h.Retrain.GiveUps)
	}
	if h.Calibration != nil {
		fmt.Printf("calibration: %d pairs (lifetime %d) | MAPE %.4f | Pearson r %.4f\n",
			h.Calibration.Pairs, h.Calibration.Total, h.Calibration.MAPE, h.Calibration.PearsonR)
	} else {
		fmt.Println("calibration: no prediction bundle configured (-train enables it)")
	}
	if h.JournalEntries > 0 || h.LastCheckpoint >= 0 {
		fmt.Printf("journal: %d entries, %d bytes | last checkpoint at tick %d\n",
			h.JournalEntries, h.JournalBytes, h.LastCheckpoint)
	}
	if err := metricsSummary(addr); err != nil {
		fmt.Printf("metrics: unavailable (%v)\n", err)
	}
	if h.Err != "" {
		return errors.New("engine error: " + h.Err)
	}
	fmt.Printf("log: %d lines, digest %s\n", h.LogLines, h.LogDigest)
	return nil
}

// metricsSummary scrapes /metrics and prints the operational core of the
// registry: intake and engine throughput, scheduler memo efficiency, and
// the wall-clock latency histograms' means.
func metricsSummary(addr string) error {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: %s", resp.Status)
	}
	fams, err := obs.ParseText(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return err
	}
	byName := make(map[string]*obs.Family, len(fams))
	for i := range fams {
		byName[fams[i].Name] = &fams[i]
	}
	val := func(name string) float64 {
		if f, ok := byName[name]; ok {
			if v, ok := f.Value(); ok {
				return v
			}
		}
		return 0
	}
	mean := func(name string) float64 {
		if f, ok := byName[name]; ok {
			if count, sum, ok := f.Histogram(); ok && count > 0 {
				return sum / float64(count)
			}
		}
		return 0
	}
	fmt.Printf("metrics: %d families | intake: %.0f accepted, %.0f applied, %.0f over-capacity 429s\n",
		len(fams),
		val("mdcsim_serve_events_accepted_total"),
		val("mdcsim_serve_events_applied_total"),
		val("mdcsim_serve_rejected_429_total"))
	rounds := val("mdcsim_sched_rounds_total")
	perRound := 0.0
	if rounds > 0 {
		perRound = val("mdcsim_sched_candidates_scored_total") / rounds
	}
	fmt.Printf("metrics: engine %.0f ticks (mean %.3fms) | wal fsync mean %.3fms | sched %.0f rounds, %.1f candidates scored/round\n",
		val("mdcsim_engine_ticks_total"), mean("mdcsim_serve_tick_seconds")*1e3,
		mean("mdcsim_serve_wal_fsync_seconds")*1e3,
		rounds, perRound)
	fmt.Printf("metrics: retrain %.0f kicked, %.0f adopted, %.0f failed | runtime %.0f goroutines, %.1f MiB heap\n",
		val("mdcsim_serve_retrain_kicked_total"),
		val("mdcsim_serve_retrain_adopted_total"),
		val("mdcsim_serve_retrain_failed_total"),
		val("mdcsim_runtime_goroutines"),
		val("mdcsim_runtime_heap_alloc_bytes")/(1<<20))
	return nil
}
