package sched_test

// Candidate-pruning parity: with Prune on and PruneK at the safe bound
// (0), BestFit scores only one representative host per distinct tentative
// host state plus the VM's current host — and the resulting placement
// must be bit-identical to the exhaustive scan on every preset, fresh and
// reused, serial and parallel, across churned fleets and through a host
// fault cycle. PruneK > 0 gives up the guarantee for bounded work; there
// the contract is determinism plus disclosed truncation.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// TestPruneParityAllPresets proves the safe-bound shortlist is
// placement-identical to exhaustive Best-Fit on every preset, for both
// the monitored and the ML estimator: fresh state, steady-state reuse
// (where the incremental re-keying from the previous round's Assigns has
// run), churned fleets, and parallel candidate scoring.
func TestPruneParityAllPresets(t *testing.T) {
	bundle, err := experiments.TrainedBundle(paritySeed)
	if err != nil {
		t.Fatal(err)
	}
	ests := []sched.Estimator{sched.NewObserved(), sched.NewML(bundle)}
	for _, name := range scenario.Names() {
		p1 := presetProblem(t, name, paritySeed)
		p2 := churnedProblem(p1)
		cost := parityCost(t, name, paritySeed)
		for _, est := range ests {
			want1, err := sched.NewBestFit(cost, est).Schedule(p1)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, est.Name(), err)
			}
			want2, err := sched.NewBestFit(cost, est).Schedule(p2)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, est.Name(), err)
			}

			pruned := sched.NewBestFit(cost, est)
			pruned.Prune = true
			for pass, tc := range []struct {
				p    *sched.Problem
				want model.Placement
			}{{p1, want1}, {p1, want1}, {p2, want2}} {
				got, err := pruned.Schedule(tc.p)
				if err != nil {
					t.Fatalf("%s/%s pass %d: %v", name, est.Name(), pass, err)
				}
				if !got.Equal(tc.want) {
					t.Fatalf("%s/%s pass %d: pruned placement diverged from exhaustive",
						name, est.Name(), pass)
				}
				st := pruned.LastRoundStats()
				if st.ShortlistRebuilds != 1 {
					t.Fatalf("%s/%s pass %d: %d shortlist rebuilds, want 1",
						name, est.Name(), pass, st.ShortlistRebuilds)
				}
				if st.ShortlistTruncated != 0 {
					t.Fatalf("%s/%s pass %d: safe bound truncated %d classes",
						name, est.Name(), pass, st.ShortlistTruncated)
				}
				exhaustive := len(tc.p.VMs) * len(tc.p.Hosts)
				if st.CandidatesScored <= 0 || st.CandidatesScored > exhaustive {
					t.Fatalf("%s/%s pass %d: scored %d candidates, exhaustive is %d",
						name, est.Name(), pass, st.CandidatesScored, exhaustive)
				}
			}

			// Parallel pruned scoring: same placements at a fixed worker count.
			pp := sched.NewBestFit(cost, est)
			pp.Prune = true
			pp.Workers = 3
			for pass, tc := range []struct {
				p    *sched.Problem
				want model.Placement
			}{{p1, want1}, {p2, want2}} {
				got, err := pp.Schedule(tc.p)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, est.Name(), err)
				}
				if !got.Equal(tc.want) {
					t.Fatalf("%s/%s pass %d: parallel pruned placement diverged",
						name, est.Name(), pass)
				}
			}
		}
	}
}

// TestPruneParityThroughFaultCycle carries one pruned scheduler through a
// crash → re-home → recover cycle: the shortlist index is rebuilt against
// each round's candidate set, so a disappearing (and returning) host must
// never desynchronize it from the exhaustive answer.
func TestPruneParityThroughFaultCycle(t *testing.T) {
	for _, name := range scenario.Names() {
		p := presetProblem(t, name, paritySeed)
		if p.VMs[0].Current == model.NoPM || len(p.Hosts) < 2 {
			t.Fatalf("%s: warm-up problem has no failable host", name)
		}
		pFail, pRehome, pRecover := failCycleProblems(p)
		cost := parityCost(t, name, paritySeed)
		est := sched.NewObserved()
		pruned := sched.NewBestFit(cost, est)
		pruned.Prune = true
		for stage, sp := range []*sched.Problem{p, pFail, pRehome, pRecover} {
			want, err := sched.NewBestFit(cost, est).Schedule(sp)
			if err != nil {
				t.Fatalf("%s stage %d: %v", name, stage, err)
			}
			got, err := pruned.Schedule(sp)
			if err != nil {
				t.Fatalf("%s stage %d: %v", name, stage, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s stage %d: pruned placement diverged through fault cycle",
					name, stage)
			}
		}
	}
}

// TestPruneIndexRoundTrip exercises the incremental re-keying directly:
// an Assign/Unassign sequence unwound in reverse order must restore the
// exact candidate shortlist of the untouched round — the branch-and-bound
// usage pattern, and the strongest check that removeHost/addHost keep the
// class lists and member orders canonical.
func TestPruneIndexRoundTrip(t *testing.T) {
	p := presetProblem(t, scenario.Names()[1], paritySeed)
	cost := parityCost(t, scenario.Names()[1], paritySeed)
	r, err := sched.NewRound(p, cost, sched.NewObserved())
	if err != nil {
		t.Fatal(err)
	}
	r.SetPrune(true)
	if err := r.Reset(p, cost, sched.NewObserved()); err != nil {
		t.Fatal(err)
	}
	snapshot := func() [][]int32 {
		out := make([][]int32, r.NumVMs())
		for i := range out {
			cands, _, _ := r.AppendCandidates(i, 0, nil)
			out[i] = cands
		}
		return out
	}
	before := snapshot()

	type mv struct{ i, j int }
	var moves []mv
	for i := 0; i < r.NumVMs(); i++ {
		j := (i * 7) % r.NumHosts()
		r.Assign(i, j)
		moves = append(moves, mv{i, j})
	}
	mid := snapshot()
	changed := false
	for i := range before {
		if len(before[i]) != len(mid[i]) {
			changed = true
			break
		}
		for k := range before[i] {
			if before[i][k] != mid[i][k] {
				changed = true
				break
			}
		}
	}
	if !changed {
		t.Fatal("assignments never changed any shortlist")
	}
	for k := len(moves) - 1; k >= 0; k-- {
		r.Unassign(moves[k].i, moves[k].j)
	}
	after := snapshot()
	for i := range before {
		if len(before[i]) != len(after[i]) {
			t.Fatalf("VM %d: shortlist size %d after round trip, want %d",
				i, len(after[i]), len(before[i]))
		}
		for k := range before[i] {
			if before[i][k] != after[i][k] {
				t.Fatalf("VM %d: shortlist diverged after unwind at slot %d: %d != %d",
					i, k, after[i][k], before[i][k])
			}
		}
	}
}

// TestPruneTruncation pins the PruneK > 0 contract on the xlarge fleet —
// the smallest preset whose per-DC class counts actually exceed small K
// values: deterministic output (identical placements on identical
// inputs), disclosed truncation once K is below the class count, and
// exact parity again once K is large enough to stop truncating.
func TestPruneTruncation(t *testing.T) {
	name := scenario.XLargeFleet
	p := presetProblem(t, name, paritySeed)
	cost := parityCost(t, name, paritySeed)
	est := sched.NewObserved()
	want, err := sched.NewBestFit(cost, est).Schedule(p)
	if err != nil {
		t.Fatal(err)
	}

	tight := sched.NewBestFit(cost, est)
	tight.Prune = true
	tight.PruneK = 8
	got1, err := tight.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	st := tight.LastRoundStats()
	got2, err := tight.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if !got1.Equal(got2) {
		t.Fatal("truncated pruning is nondeterministic across identical rounds")
	}
	if st.ShortlistTruncated == 0 {
		t.Fatalf("PruneK=8 on %d hosts never truncated: %+v", len(p.Hosts), st)
	}
	if full := len(p.VMs) * len(p.Hosts); st.CandidatesScored*4 >= full {
		t.Fatalf("PruneK=8 scored %d of %d — not a useful cut", st.CandidatesScored, full)
	}

	safe := sched.NewBestFit(cost, est)
	safe.Prune = true
	got, err := safe.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("safe-bound pruning diverged from exhaustive on xlarge")
	}
	stSafe := safe.LastRoundStats()
	if stSafe.ShortlistTruncated != 0 {
		t.Fatalf("safe bound truncated %d classes", stSafe.ShortlistTruncated)
	}
	if stSafe.CandidatesScored <= st.CandidatesScored {
		t.Fatalf("safe bound scored %d, tight K scored %d — truncation saved nothing",
			stSafe.CandidatesScored, st.CandidatesScored)
	}

	wide := sched.NewBestFit(cost, est)
	wide.Prune = true
	wide.PruneK = len(p.Hosts) // K >= every class count: nothing to drop
	got, err = wide.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("PruneK >= class count diverged from exhaustive")
	}
	if st := wide.LastRoundStats(); st.ShortlistTruncated != 0 {
		t.Fatalf("PruneK >= class count still truncated %d classes", st.ShortlistTruncated)
	}
}
