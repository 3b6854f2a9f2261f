// Package par provides the small set of parallel building blocks the
// reproduction uses: bounded fan-out over index ranges and parallel map.
//
// The helpers keep all coordination inside the call (share memory by
// communicating): workers receive disjoint index ranges, write only to
// their own output slots, and the call returns after every worker is done,
// so callers never observe partially-written state.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0:
// the machine's GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// dispatchChunk sizes the self-scheduling grain: small enough that a slow
// index cannot strand the tail on one worker, large enough that the atomic
// cursor is not contended on every index.
func dispatchChunk(n, workers int) int {
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// ForEach invokes fn(i) for every i in [0, n) using up to workers
// goroutines. It returns once all invocations have completed. fn must be
// safe to call concurrently for distinct indices.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the worker's identity exposed: fn(w, i)
// runs with w in [0, workers), and no two invocations share a w
// concurrently — callers thread per-worker scratch by indexing with w.
// Indices are handed out as contiguous chunks off a shared atomic cursor
// (self-scheduling), so the dispatch cost is O(n/chunk) atomics instead of
// the former O(n) buffered-channel sends per call.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	chunk := dispatchChunk(n, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// ForEachChunkWorker is ForEachWorker handing out whole chunks: fn(w, lo,
// hi) processes the contiguous index block [lo, hi) on worker w, with no
// two invocations sharing a w concurrently. It suits batched stages —
// callers that amortize per-call setup over a block (e.g. a batched
// inference fill) receive the block boundaries instead of single indices,
// while keeping the self-scheduling dispatch and the per-worker scratch
// identity of ForEachWorker.
func ForEachChunkWorker(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	chunk := dispatchChunk(n, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// Map applies fn to every element of in using up to workers goroutines and
// returns the outputs in input order.
func Map[T, U any](in []T, workers int, fn func(T) U) []U {
	out := make([]U, len(in))
	ForEach(len(in), workers, func(i int) {
		out[i] = fn(in[i])
	})
	return out
}

// MapIdx is Map with the element index available to the function.
func MapIdx[T, U any](in []T, workers int, fn func(int, T) U) []U {
	out := make([]U, len(in))
	ForEach(len(in), workers, func(i int) {
		out[i] = fn(i, in[i])
	})
	return out
}
