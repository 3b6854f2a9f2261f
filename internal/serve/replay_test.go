package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/predict"
)

// joinLog canonicalises a placement log for comparison.
func joinLog(lines []string) string { return strings.Join(lines, "\n") }

// runScript replays a script against a fresh server and returns its log.
func runScript(t *testing.T, cfg Config, rs *ReplayScript, workers int) []string {
	t.Helper()
	_, c := newTestServer(t, cfg)
	log, err := c.Replay(rs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// drive sends every step with fromTick <= Tick < toTick and executes the
// barriers for those ticks — a partial Client.Replay for restore tests.
func drive(t *testing.T, c *Client, rs *ReplayScript, fromTick, toTick, workers int) {
	t.Helper()
	next := 0
	for next < len(rs.Steps) && rs.Steps[next].Tick < fromTick {
		next++
	}
	for tick := fromTick; tick < toTick; tick++ {
		var batch []Event
		for next < len(rs.Steps) && rs.Steps[next].Tick == tick {
			batch = append(batch, rs.Steps[next].Events...)
			next++
		}
		if err := c.sendAll(batch, workers); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if _, err := c.Tick(1); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
}

// TestReplayDeterministicAcrossReruns is the core replay guarantee: the
// same script against a fresh server yields a byte-identical placement
// log, run after run.
func TestReplayDeterministicAcrossReruns(t *testing.T) {
	rs := smokeScript()
	a := runScript(t, Config{Seed: 9}, rs, 1)
	b := runScript(t, Config{Seed: 9}, rs, 1)
	if joinLog(a) != joinLog(b) {
		t.Fatal("two identical runs diverged")
	}
}

// TestReplayDeterministicAcrossTickWorkers pins worker-count neutrality:
// the engine's parallel tick width must not leak into placement.
func TestReplayDeterministicAcrossTickWorkers(t *testing.T) {
	rs := smokeScript()
	ref := runScript(t, Config{Seed: 9, TickWorkers: 1}, rs, 2)
	for _, w := range []int{2, 4} {
		got := runScript(t, Config{Seed: 9, TickWorkers: w}, rs, 2)
		if joinLog(got) != joinLog(ref) {
			t.Fatalf("TickWorkers=%d diverged from TickWorkers=1", w)
		}
	}
}

// TestReplayDeterministicAcrossClientWorkers pins interleaving
// neutrality: concurrent senders racing the intake queue in any order
// produce the same run, because events carry Seq and the barrier sorts.
func TestReplayDeterministicAcrossClientWorkers(t *testing.T) {
	rs := smokeScript()
	ref := runScript(t, Config{Seed: 9}, rs, 1)
	for _, w := range []int{3, 8} {
		got := runScript(t, Config{Seed: 9}, rs, w)
		if joinLog(got) != joinLog(ref) {
			t.Fatalf("client workers=%d diverged from workers=1", w)
		}
	}
}

// TestReplayThroughCheckpointRestore is the crash-safety headline: a run
// interrupted mid-script (checkpoint, then the process "dies" without a
// graceful shutdown) restores and finishes with a placement log
// byte-identical to the uninterrupted run — even when the restored
// server uses a different TickWorkers count.
func TestReplayThroughCheckpointRestore(t *testing.T) {
	rs := smokeScript()
	full := runScript(t, Config{Seed: 9}, rs, 2)

	const cut = 18 // mid-script: after the crash fault, before the repair
	dir := t.TempDir()
	_, c1 := newTestServer(t, Config{Seed: 9, Dir: dir})
	drive(t, c1, rs, 0, cut, 2)
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// No shutdown: the first server is simply abandoned, as a crash
	// would leave it. The journal was flushed at every tick barrier.

	s2, c2 := newTestServer(t, Config{Seed: 9, Dir: dir, Restore: true, TickWorkers: 4})
	if got := s2.Snapshot().Tick; got != cut {
		t.Fatalf("restored to tick %d, want %d", got, cut)
	}
	drive(t, c2, rs, cut, rs.Ticks, 2)

	log, err := c2.Log(0)
	if err != nil {
		t.Fatal(err)
	}
	if joinLog(log) != joinLog(full) {
		t.Fatal("restored run diverged from the uninterrupted run")
	}
}

// TestServeLogSortedUnderSlotReuse pins the round-tick place=[...] order
// once a departed VM's engine slot is reused by a later, higher-ID offer:
// slot order then disagrees with VM ID order, and the log must still list
// the placement strictly ascending by VM ID.
func TestServeLogSortedUnderSlotReuse(t *testing.T) {
	short := offerEv(1, "short", 0)
	short.Offer.LifetimeTicks = 3
	rs := &ReplayScript{
		Ticks: 21,
		Steps: []ReplayStep{
			{Tick: 0, Events: []Event{short, offerEv(2, "long", 1)}},
			{Tick: 12, Events: []Event{offerEv(3, "late", 2)}},
		},
	}
	s, c := newTestServer(t, Config{Seed: 7})
	log, err := c.Replay(rs, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if st := snap.VMs["short"].Status; st != StatusDeparted {
		t.Fatalf("short-lived VM is %q, want departed", st)
	}
	longID, lateID := snap.VMs["long"].ID, snap.VMs["late"].ID
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	<-s.loop.done // the loop has exited: its world is safe to read
	longSlot, _ := s.loop.world.VMIndex(model.VMID(longID))
	lateSlot, ok := s.loop.world.VMIndex(model.VMID(lateID))
	if !ok || lateID <= longID || lateSlot >= longSlot {
		t.Fatalf("no slot reuse: long id %d slot %d, late id %d slot %d", longID, longSlot, lateID, lateSlot)
	}

	// The round at tick 20 is the first after "late" arrived.
	line := log[20]
	i := strings.Index(line, " place=[")
	if i < 0 || !strings.HasSuffix(line, "]") {
		t.Fatalf("tick 20 line has no placement: %q", line)
	}
	prev, seen := -1, 0
	for _, e := range strings.Fields(line[i+len(" place=[") : len(line)-1]) {
		id, err := strconv.Atoi(e[:strings.IndexByte(e, ':')])
		if err != nil {
			t.Fatalf("bad placement entry %q: %v", e, err)
		}
		if id <= prev {
			t.Fatalf("placement IDs not strictly ascending at %d after %d: %q", id, prev, line)
		}
		if id == longID || id == lateID {
			seen++
		}
		prev = id
	}
	if seen != 2 {
		t.Fatalf("tick 20 placement lacks the live offers: %q", line)
	}
}

// TestRestoreRefusesIncompatibleCheckpoint pins the compatibility rule:
// a journal taken under one (scenario, seed, round period) must not be
// replayed under another.
func TestRestoreRefusesIncompatibleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{Seed: 9, Dir: dir})
	drive(t, c, smokeScript(), 0, 5, 1)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	if _, err := New(Config{Seed: 10, Dir: dir, Restore: true}); err == nil {
		t.Fatal("restore with a different seed should fail")
	}
	if _, err := New(Config{Seed: 9, Dir: dir}); err == nil {
		t.Fatal("reusing a journal directory without Restore should fail")
	}
	// The round period is fixed in this build, so only a checkpoint file
	// written elsewhere can carry another one.
	cp := `{"scenario": "serve-base", "seed": 9, "round_ticks": 5}`
	if err := os.WriteFile(filepath.Join(dir, CheckpointName), []byte(cp), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Seed: 9, Dir: dir, Restore: true})
	if err == nil || !strings.Contains(err.Error(), "round period") {
		t.Fatalf("restore under a checkpoint with a different round period: got %v, want a round-period refusal", err)
	}
}

// testBundle trains one small prediction bundle for the whole package
// (training is the expensive part; every test shares it).
var (
	bundleOnce sync.Once
	bundleVal  *predict.Bundle
	bundleErr  error
)

func testBundle(t *testing.T) *predict.Bundle {
	t.Helper()
	bundleOnce.Do(func() {
		opts := predict.DefaultHarvestOpts(11)
		opts.Ticks = 700
		h, err := predict.Collect(opts)
		if err != nil {
			bundleErr = err
			return
		}
		bundleVal, bundleErr = predict.Train(h, predict.DefaultTrainConfig(12))
	})
	if bundleErr != nil {
		t.Fatal(bundleErr)
	}
	return bundleVal
}

// TestReplayDeterministicWithOnlineLearning closes the loop on the
// virtual-time learning path: with a live bundle, the ML admission gate
// and synchronous retrains enabled, replay is still byte-identical —
// and the calibration window actually fills.
func TestReplayDeterministicWithOnlineLearning(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cfg := Config{
		Seed:               9,
		Bundle:             testBundle(t),
		MinPredictedSLA:    0.2,
		OnlineRetrainEvery: 15,
	}
	rs := smokeScript()
	a := runScript(t, cfg, rs, 2)
	b := runScript(t, cfg, rs, 3)
	if joinLog(a) != joinLog(b) {
		t.Fatal("online-learning replay diverged across runs")
	}

	_, c := newTestServer(t, cfg)
	if _, err := c.Replay(rs, 2); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Calibration == nil || h.Calibration.Pairs == 0 {
		t.Fatal("calibration window empty despite a live bundle")
	}
	if h.Online == nil || h.Online.Retrains == 0 {
		t.Fatalf("online stats %+v: expected at least one synchronous retrain", h.Online)
	}
}

// snapshotJSON renders a snapshot for parity comparison, with the one
// wall-clock field (the last refit's duration) zeroed.
func snapshotJSON(t *testing.T, s *Snapshot) map[string]json.RawMessage {
	t.Helper()
	c := *s
	if c.Online != nil {
		o := *c.Online
		o.LastRetrainWall = 0
		c.Online = &o
	}
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	return fields
}

// TestRestoredSnapshotMatchesLive pins restore parity of the read side:
// a run abandoned right after a checkpoint restores to a Snapshot that
// JSON-equals the one the crashed run last published — VM table,
// calibration report, online-learning stats and durability position
// included — and the restore leaves the crashed run's checkpoint file
// byte for byte as it was. The checkpoint period deliberately does not
// divide the cut tick.
func TestRestoredSnapshotMatchesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cfg := Config{
		Seed:               9,
		Dir:                t.TempDir(),
		Bundle:             testBundle(t),
		MinPredictedSLA:    0.2,
		OnlineRetrainEvery: 15,
		CheckpointEvery:    10,
	}
	const cut = 33
	s1, c1 := newTestServer(t, cfg)
	drive(t, c1, smokeScript(), 0, cut, 2)
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	live := s1.Snapshot()
	cpPath := filepath.Join(cfg.Dir, CheckpointName)
	cpLive, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if live.Online == nil || live.Online.Retrains == 0 || live.Calibration == nil || live.Calibration.Pairs == 0 {
		t.Fatalf("live run exercised too little: online %+v calibration %+v", live.Online, live.Calibration)
	}

	rcfg := cfg
	rcfg.Restore = true
	s2, _ := newTestServer(t, rcfg)
	restored := s2.Snapshot()
	if restored.LastCheckpoint != live.LastCheckpoint {
		t.Errorf("restored last_checkpoint_tick %d, the crashed run certified %d", restored.LastCheckpoint, live.LastCheckpoint)
	}
	cpRestored, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cpRestored, cpLive) {
		t.Errorf("restore rewrote %s:\n%s\nthe crashed run left:\n%s", CheckpointName, cpRestored, cpLive)
	}
	want, got := snapshotJSON(t, live), snapshotJSON(t, restored)
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Errorf("snapshot field %q: restored %s, live %s", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("restored snapshot has extra field %q", k)
		}
	}
}
