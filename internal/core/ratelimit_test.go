package core

import (
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// TestRateLimitBucket pins the token-bucket arithmetic: a primed bucket
// holds Burst tokens, refills at RatePerTick up to Burst, and Take fails
// only when the level falls below one token.
func TestRateLimitBucket(t *testing.T) {
	rl := &RateLimit{RatePerTick: 2, Burst: 4}
	rl.Advance(10)
	for i := 0; i < 4; i++ {
		if !rl.Take() {
			t.Fatalf("take %d of the primed burst failed", i)
		}
	}
	if rl.Take() {
		t.Fatal("5th take from a burst-4 bucket succeeded")
	}
	rl.Advance(11) // +2 tokens
	if !rl.Take() || !rl.Take() {
		t.Fatal("one tick's refill should grant RatePerTick takes")
	}
	if rl.Take() {
		t.Fatal("take beyond the refill succeeded")
	}
	rl.Advance(100) // long idle: clamped at Burst, not 2*89
	n := 0
	for rl.Take() {
		n++
	}
	if n != 4 {
		t.Fatalf("idle refill granted %d takes, want Burst=4", n)
	}
	// Defaulted burst: max(RatePerTick, 1).
	rl2 := &RateLimit{RatePerTick: 0.5}
	rl2.Advance(0)
	if !rl2.Take() || rl2.Take() {
		t.Fatal("defaulted burst should hold exactly one token")
	}
}

// TestRateLimitBurstStormDefersNotDrops drives a 12-VM arrival wave into
// a fleet with plenty of capacity through a RatePerTick-2 / Burst-4
// bucket: the wave must be admitted at the bucket's pace — never more
// than 4 in one tick, all eventually admitted, zero rejections — the
// deferred-not-dropped contract.
func TestRateLimitBurstStormDefersNotDrops(t *testing.T) {
	spec := scenario.Spec{
		Name: "rate-storm", Seed: 7, DCs: 1, PMsPerDC: 10, VMs: 2,
		Churn: &lifecycle.ProcessSpec{
			Kind: lifecycle.Waves, WaveEvery: 40, WaveSize: 12,
			HorizonTicks: 50, // exactly one wave, at tick 40
		},
	}
	sc, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	runner := lifecycle.NewRunner(sc.Script)
	rl := &RateLimit{RatePerTick: 2, Burst: 4}
	mgr, err := NewManager(ManagerConfig{
		World:      sc.World,
		Scheduler:  sched.NewBestFit(sched.NewCostModel(sc.Topology, 1.0/6), sched.NewOverbooked()),
		RoundTicks: 10,
		Lifecycle:  runner,
		Admission: AdmissionPolicy{
			// Capacity never binds: the bucket is the only gate. The wave
			// clears within 5 ticks, well inside the 30-tick deferral
			// deadline, so nothing may time out.
			TargetUtil: 4,
			Rate:       rl,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	prev := 0
	perTick := make(map[int]int)
	for tick := 0; tick < 120; tick++ {
		if _, err := mgr.Step(); err != nil {
			t.Fatal(err)
		}
		st := runner.Stats()
		if d := st.Admitted - prev; d > 0 {
			perTick[tick] = d
		}
		prev = st.Admitted
	}
	st := runner.Stats()
	if st.Offered != 12 {
		t.Fatalf("offered %d, want the 12-VM wave", st.Offered)
	}
	if st.Rejected != 0 {
		t.Fatalf("rejected %d under the bucket, want 0 (deferred-not-dropped)", st.Rejected)
	}
	if st.Admitted != 12 {
		t.Fatalf("admitted %d of 12 after the smear window", st.Admitted)
	}
	if st.Deferrals == 0 {
		t.Fatal("a 12-VM burst through a burst-4 bucket must defer someone")
	}
	if got := perTick[40]; got != 4 {
		t.Fatalf("wave tick admitted %d, want the full burst of 4", got)
	}
	for tick, n := range perTick {
		if n > 4 {
			t.Fatalf("tick %d admitted %d > burst 4", tick, n)
		}
		if tick != 40 && n > 2 {
			t.Fatalf("tick %d admitted %d > RatePerTick 2 after the burst", tick, n)
		}
	}
}
