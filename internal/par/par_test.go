package par

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 100
		seen := make([]int32, n)
		ForEach(n, workers, func(i int) {
			atomic.AddInt32(&seen[i], 1)
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachWorkerCoversAllIndicesWithValidWorkerIDs(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 1000
		seen := make([]int32, n)
		var badWorker atomic.Int32
		ForEachWorker(n, workers, func(w, i int) {
			if w < 0 || (workers > 0 && w >= workers) || w >= n {
				badWorker.Store(1)
			}
			atomic.AddInt32(&seen[i], 1)
		})
		if badWorker.Load() != 0 {
			t.Fatalf("workers=%d: worker id out of range", workers)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

// TestForEachWorkerScratchDisjoint proves the contract callers rely on for
// per-worker scratch: no two concurrent invocations share a worker id, so
// indexing a scratch slice by w is race-free.
func TestForEachWorkerScratchDisjoint(t *testing.T) {
	const workers = 8
	var busy [workers]atomic.Int32
	var clash atomic.Int32
	ForEachWorker(10000, workers, func(w, i int) {
		if !busy[w].CompareAndSwap(0, 1) {
			clash.Store(1)
		}
		busy[w].Store(0)
	})
	if clash.Load() != 0 {
		t.Fatal("two invocations shared a worker id concurrently")
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-5, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestMapOrderPreserved(t *testing.T) {
	in := make([]int, 257)
	for i := range in {
		in[i] = i
	}
	out := Map(in, 8, func(x int) int { return x * x })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out := Map(nil, 4, func(x int) int { return x })
	if len(out) != 0 {
		t.Fatal("non-empty output for empty input")
	}
}

func TestMapIdx(t *testing.T) {
	in := []string{"a", "bb", "ccc"}
	out := MapIdx(in, 2, func(i int, s string) int { return i + len(s) })
	want := []int{1, 3, 5}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}
