package sweep

import (
	"sync"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestSweepFillsEachRowOnce checks that the policy cells of one
// (scenario, seed) share their workload rows: on a fixed-population
// preset every cell asks for every VM's row at every tick, so a
// 1-preset × 3-policy sweep computes each (VM, tick) row once and copies
// it twice, at any worker count.
func TestSweepFillsEachRowOnce(t *testing.T) {
	const ticks = 60
	sc, err := scenario.Build(scenario.MustPreset(scenario.MultiDC, 1))
	if err != nil {
		t.Fatal(err)
	}
	rows := int64(len(sc.VMs) * ticks)
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var memos []*trace.Memo
		_, err := run(Matrix{
			Scenarios: []string{scenario.MultiDC},
			Policies:  []string{"bf", "bf-ob", "firstfit"},
			Seeds:     []uint64{1},
			Ticks:     ticks,
			Workers:   workers,
		}, func() *trace.Memo {
			m := trace.NewMemo()
			mu.Lock()
			memos = append(memos, m)
			mu.Unlock()
			return m
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(memos) != 1 {
			t.Fatalf("workers=%d: %d memos for one (scenario, seed), want 1", workers, len(memos))
		}
		fills, hits := memos[0].Counts()
		if fills != rows || hits != 2*rows {
			t.Errorf("workers=%d: %d rows computed and %d copied, want %d and %d",
				workers, fills, hits, rows, 2*rows)
		}
	}
}
