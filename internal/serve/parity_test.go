package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// placementString lists the world's live VMs as "vm:host" sorted by VM
// ID, the form a round-tick log line uses.
func placementString(w *sim.World) string {
	var ps []string
	for i := 0; i < w.NumVMs(); i++ {
		if !w.ActiveVM(i) {
			continue
		}
		host := -1
		if j := w.HostIndexOf(i); j >= 0 {
			host = int(w.PMSpecAt(j).ID)
		}
		ps = append(ps, fmt.Sprintf("%08d:%d", int(w.VMSpecAt(i).ID), host))
	}
	slices.Sort(ps)
	return strings.Join(ps, " ")
}

func econOf(st sim.TickSummary) tickEcon {
	return tickEcon{
		unplaced: st.UnplacedVMs,
		avgSLA:   st.AvgSLA,
		revenue:  st.RevenueEUR,
		energy:   st.EnergyEUR,
		penalty:  st.PenaltyEUR,
		profit:   st.ProfitEUR,
	}
}

// TestServeMatchesSweepCell pins the placement service to the sweep cell
// runner: serve with no HTTP events over a preset is the registry's bf-ob
// cell on the same (preset, seed) — the same per-tick economics, round
// count and final placement, on fixed fleets, churn scripts and fault
// scripts alike. The one known difference is the degraded-tick counter:
// serve always carries a fault runner (faults may arrive over HTTP), and
// with one the manager reports degraded ticks on any over-committed
// fleet, while a cell on a preset without a fault script has none. Only
// flash-crowd over-commits, and its gap is asserted, not hidden.
func TestServeMatchesSweepCell(t *testing.T) {
	const seed, ticks = 7, 240
	degradedGap := map[string]int{scenario.FlashCrowd: 7}
	pol, err := sweep.PolicyByName("bf-ob")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		scenario.MultiDC, scenario.IntraDC, scenario.ServeBase, scenario.ChurnPoisson,
		scenario.ChurnStorm, scenario.FailAZOutage, scenario.FlashCrowd,
	} {
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.Preset(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			var want []tickEcon
			var wantPlace string
			cell, err := sweep.RunSpec(spec, pol, nil, ticks, sweep.RunOpts{
				OnTick: func(sc *scenario.Scenario, st sim.TickSummary) {
					want = append(want, econOf(st))
					if len(want) == ticks {
						wantPlace = placementString(sc.World)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			l, err := newLoop(Config{Scenario: name, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for tick := 0; tick < ticks; tick++ {
				if err := l.tickOnce(); err != nil {
					t.Fatal(err)
				}
				if l.econ != want[tick] {
					t.Fatalf("tick %d: serve economics %+v, sweep cell %+v", tick, l.econ, want[tick])
				}
			}
			if got := l.mgr.Rounds(); got != cell.Rounds {
				t.Errorf("serve ran %d rounds, sweep cell %d", got, cell.Rounds)
			}
			if got := placementString(l.world); got != wantPlace {
				t.Errorf("final placement differs:\nserve %s\nsweep %s", got, wantPlace)
			}
			if gap := l.faults.Stats().DegradedTicks - cell.DegradedTicks; gap != degradedGap[name] {
				t.Errorf("degraded ticks: serve %d, sweep cell %d (gap %d, want %d)",
					l.faults.Stats().DegradedTicks, cell.DegradedTicks, gap, degradedGap[name])
			}
		})
	}
}

// replaySmokeScript is the replay script of CI's serve-smoke job.
const replaySmokeScript = `{
  "ticks": 25,
  "steps": [
    {"tick": 0, "events": [
      {"seq": 1, "kind": "offer", "offer": {"name": "web-0", "home_dc": 0}},
      {"seq": 2, "kind": "offer", "offer": {"name": "web-1", "home_dc": 1}}]},
    {"tick": 8, "events": [
      {"seq": 3, "kind": "telemetry", "telemetry": {"name": "web-0", "rps": 40}},
      {"seq": 4, "kind": "fault", "fault": {"kind": "crash", "pm": 0}}]},
    {"tick": 15, "events": [
      {"seq": 5, "kind": "fault", "fault": {"kind": "repair", "pm": 0}}]}
  ]
}
`

// replayGoldens pins the SHA-256 of the placement log `mdcsim serve
// -replay` prints for replaySmokeScript at its defaults (serve-base, seed
// 42), each line newline-terminated, keyed by GOOS/GOARCH like the sweep
// golden.
var replayGoldens = map[string]string{
	"linux/amd64": "cf1f1ef25e9da222f834ea0ad51cee8fd6ed71554768e9c33ab601cf561ce6fc",
}

// TestServeReplayGolden pins serve's placement log to fixed bytes, not
// only to a rerun of itself: a change to how serve builds or steps its
// managed run must reproduce the log CI's replay smoke prints.
func TestServeReplayGolden(t *testing.T) {
	key := runtime.GOOS + "/" + runtime.GOARCH
	want, ok := replayGoldens[key]
	if !ok {
		t.Skipf("no replay golden recorded for %s", key)
	}
	path := filepath.Join(t.TempDir(), "replay-smoke.json")
	if err := os.WriteFile(path, []byte(replaySmokeScript), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := LoadReplayScript(path)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, ln := range runScript(t, Config{Seed: 42}, rs, 1) {
		b.WriteString(ln)
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("replay-smoke placement log sha256 = %s, want %s", got, want)
	}
}
