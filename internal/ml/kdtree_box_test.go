package ml

import (
	"fmt"
	"math"
	"testing"
)

// --- oracle: the plane-pruned flat kd-tree search ---

// planeTask is one deferred far-subtree visit of the oracle search: the
// node and the squared distance from the query to its splitting plane.
type planeTask struct {
	id    int32
	diff2 float64
}

// planeSearch is the search before nodes carried bounding boxes: a far
// subtree is pruned only by the squared distance to the one plane that
// split it off, and every leaf the descent reaches is scanned. It returns
// the number of points it scanned. The box-pruned search must leave the
// heap exactly as this one does.
func (t *kdTree) planeSearch(q []float64, k int, h *neighborHeap) (points int64) {
	if len(t.first) == 0 {
		return 0
	}
	var st []planeTask
	id := int32(0)
	for {
		for t.count[id] == 0 {
			diff := q[t.axis[id]] - t.thresh[id]
			near := t.first[id]
			far := near + 1
			if diff > 0 {
				near, far = far, near
			}
			st = append(st, planeTask{far, diff * diff})
			id = near
		}
		t.scanLeaf(id, q, k, h)
		points += int64(t.count[id])
		for {
			if len(st) == 0 {
				return points
			}
			e := st[len(st)-1]
			st = st[:len(st)-1]
			if h.Len() < k || e.diff2 < (*h)[0].d2 {
				id = e.id
				break
			}
		}
	}
}

// boxPruneVsPlane runs each standardized query through the box-pruned
// search and through the plane oracle on the same tree. It fails unless
// both leave the identical heap — the same neighbour indices with the same
// d2 bits in the same slots — and the box search scans no more points.
// It returns the summed points scanned by each.
func boxPruneVsPlane(knn *KNN, queries [][]float64) (boxPoints, planePoints int64, err error) {
	var b Buf
	for qi, q := range queries {
		b.heap = b.heap[:0]
		before := b.Work
		knn.tree.search(q, knn.cfg.K, &b)
		got := b.Work.Sub(before)
		var want neighborHeap
		pts := knn.tree.planeSearch(q, knn.cfg.K, &want)
		if len(b.heap) != len(want) {
			return 0, 0, fmt.Errorf("query %d: %d neighbours, oracle %d", qi, len(b.heap), len(want))
		}
		for i := range want {
			g, w := b.heap[i], want[i]
			if g.idx != w.idx || math.Float64bits(g.d2) != math.Float64bits(w.d2) {
				return 0, 0, fmt.Errorf("query %d slot %d: (%d, %v), oracle (%d, %v)", qi, i, g.idx, g.d2, w.idx, w.d2)
			}
		}
		if got.Queries != 1 || got.Points > pts {
			return 0, 0, fmt.Errorf("query %d: %d queries and %d points scanned, oracle scanned %d", qi, got.Queries, got.Points, pts)
		}
		boxPoints += got.Points
		planePoints += pts
	}
	return boxPoints, planePoints, nil
}

// FuzzKDTreeSearch checks the box-pruned search against brute force on
// arbitrary small finite point sets. Coordinates are int8 multiples of a
// fuzzed scale, so duplicates, exact distance ties, subnormal and
// overflowing (infinite) distances all occur; the query uses twice the
// scale, so it often lies outside the data's bounding box. The sorted
// neighbour distances must match brute force bit for bit, and so must the
// neighbour indices except among points tied with the k-th distance.
func FuzzKDTreeSearch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(1), uint8(3), 1.0)
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 0, 0, 5, 5, 3, 1}, uint8(1), uint8(1), 0.5)
	f.Add(make([]byte, 200), uint8(4), uint8(4), 1e-310)
	f.Add([]byte{127, 128, 1, 200, 7, 7, 7, 7, 9, 100, 50, 60, 128, 127}, uint8(0), uint8(2), 1e300)
	f.Fuzz(func(t *testing.T, data []byte, dims, k uint8, scale float64) {
		if !(math.Abs(scale) <= 1e300) {
			scale = 1 // NaN, infinite or so large that coordinates overflow
		}
		d := 1 + int(dims%5)
		n := min(len(data)/d-1, 256) // the next d bytes are the query
		if n < 1 {
			return
		}
		points := make([][]float64, n)
		for i := range points {
			points[i] = make([]float64, d)
			for j := range points[i] {
				points[i][j] = float64(int8(data[i*d+j])) * scale
			}
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = float64(int8(data[n*d+j])) * scale * 2
		}
		kk := min(1+int(k%8), n)

		var b Buf
		buildKDTree(points, n).search(q, kk, &b)
		got := b.heap.sortedInto(nil)
		var bh neighborHeap
		for i, p := range points {
			d2 := sqDist(q, p)
			if bh.Len() < kk {
				bh.push(neighbor{i, d2})
			} else if d2 < bh[0].d2 {
				bh[0] = neighbor{i, d2}
				bh.fixRoot()
			}
		}
		want := bh.sortedInto(nil)

		if len(got) != kk || len(want) != kk {
			t.Fatalf("got %d and brute %d neighbours, want %d", len(got), len(want), kk)
		}
		if b.Work.Queries != 1 || b.Work.Points < int64(kk) || b.Work.Points > int64(n) {
			t.Fatalf("work %+v for %d points, k %d", b.Work, n, kk)
		}
		worst := want[kk-1].d2
		seen := make(map[int]bool, kk)
		gotNear, wantNear := map[int]bool{}, map[int]bool{}
		for i := range got {
			g, w := got[i], want[i]
			if math.Float64bits(g.d2) != math.Float64bits(w.d2) {
				t.Fatalf("rank %d: d2 %v, brute %v", i, g.d2, w.d2)
			}
			if seen[g.idx] || math.Float64bits(sqDist(q, points[g.idx])) != math.Float64bits(g.d2) {
				t.Fatalf("rank %d: index %d repeated or its distance is not %v", i, g.idx, g.d2)
			}
			seen[g.idx] = true
			if g.d2 < worst {
				gotNear[g.idx] = true
			}
			if w.d2 < worst {
				wantNear[w.idx] = true
			}
		}
		for i := range wantNear {
			if !gotNear[i] {
				t.Fatalf("point %d is strictly nearer than the k-th distance %v but was not returned", i, worst)
			}
		}
	})
}
