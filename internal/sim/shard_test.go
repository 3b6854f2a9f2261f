package sim_test

// Sharded-tick determinism: World.Step's per-DC parallel resolution
// phase must be byte-identical to the serial tick at any worker count.
// The RT-noise pre-pass pins the "sim/rt" stream order, the resolution
// phase writes only PM-/guest-indexed state, and every accumulation
// (per-DC watts, ledger, monitor draws) runs serially in inventory order
// — so the fingerprint of a run, covering every truth field of every VM
// and PM on every tick, cannot depend on TickWorkers.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// runFingerprint drives a 6-DC fleet for `ticks` ticks at the given
// worker count — including a crash, a drain and a recovery mid-run — and
// hashes every observable bit of engine state after each tick.
func runFingerprint(t *testing.T, workers, ticks int) uint64 {
	t.Helper()
	sc, err := scenario.Build(scenario.Spec{
		Name: "shard-test", Seed: 99,
		DCs: 6, PMsPerDC: 3, VMs: 24,
		LoadScale: 1.5, NoiseSD: 0.25, HomeBias: 0.5,
		TickWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	e := sc.World

	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }

	for tick := 0; tick < ticks; tick++ {
		// Fault events between ticks, at fixed points of the run: the
		// sharded phase must stay deterministic across crash holes in the
		// guest lists and draining hosts.
		switch tick {
		case 8:
			if err := e.FailPM(e.PMSpecAt(1).ID); err != nil {
				t.Fatal(err)
			}
		case 10:
			if err := e.DrainPM(e.PMSpecAt(7).ID); err != nil {
				t.Fatal(err)
			}
		case 16:
			if err := e.RecoverPM(e.PMSpecAt(1).ID); err != nil {
				t.Fatal(err)
			}
			if err := e.RecoverPM(e.PMSpecAt(7).ID); err != nil {
				t.Fatal(err)
			}
		}
		s := e.Step()
		wf(s.AvgSLA)
		wf(s.MinSLA)
		wf(s.FacilityWatts)
		w64(uint64(s.ActivePMs))
		wf(s.RevenueEUR)
		wf(s.EnergyEUR)
		wf(s.PenaltyEUR)
		wf(s.ProfitEUR)
		wf(s.TotalRPS)
		w64(uint64(s.UnplacedVMs))
		w64(uint64(s.FailedPMs))
		w64(uint64(s.DrainingPMs))
		for i := 0; i < e.NumVMs(); i++ {
			truth, ok := e.VMTruthByIndex(i)
			if !ok {
				continue
			}
			wf(truth.Total.RPS)
			wf(truth.Required.CPUPct)
			wf(truth.Required.MemMB)
			wf(truth.Required.BWMbps)
			wf(truth.Granted.CPUPct)
			wf(truth.Granted.MemMB)
			wf(truth.Granted.BWMbps)
			wf(truth.Used.CPUPct)
			wf(truth.Used.MemMB)
			wf(truth.Used.BWMbps)
			wf(truth.RTProcess)
			for _, rt := range truth.RTBySource {
				wf(rt)
			}
			wf(truth.SLA)
			wf(truth.QueueLen)
		}
		for j := 0; j < e.NumPMs(); j++ {
			pm, ok := e.PMTruthByIndex(j)
			if !ok {
				continue
			}
			wf(pm.Usage.CPUPct)
			wf(pm.Usage.MemMB)
			wf(pm.Usage.BWMbps)
			wf(pm.ITWatts)
			wf(pm.FacilityWatts)
			w64(uint64(pm.Guests))
		}
		for _, w := range e.PerDCWatts() {
			wf(w)
		}
	}
	return h.Sum64()
}

// TestShardedTickDeterminism pins the sharding contract: 1..N workers,
// including counts above the DC count, produce byte-identical runs —
// through crash, drain and recovery ticks.
func TestShardedTickDeterminism(t *testing.T) {
	want := runFingerprint(t, 1, 24)
	for _, workers := range []int{2, 3, 4, 6, 9} {
		if got := runFingerprint(t, workers, 24); got != want {
			t.Fatalf("TickWorkers=%d fingerprint %x, serial %x", workers, got, want)
		}
	}
}

// TestShardedStepMatchesSerial compares every tick's summary of a serial
// world and a second world built with Spec.TickWorkers 3, on a fleet
// other than runFingerprint's.
func TestShardedStepMatchesSerial(t *testing.T) {
	mk := func(workers int) *sim.World {
		sc, err := scenario.Build(scenario.Spec{
			Name: "shard-serial", Seed: 7,
			DCs: 4, PMsPerDC: 2, VMs: 10,
			LoadScale: 1.2, NoiseSD: 0.2,
			TickWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
			t.Fatal(err)
		}
		return sc.World
	}
	a, b := mk(1), mk(3)
	for tick := 0; tick < 12; tick++ {
		sa, sb := a.Step(), b.Step()
		if sa != sb {
			t.Fatalf("tick %d: serial %+v != sharded %+v", tick, sa, sb)
		}
	}
}
