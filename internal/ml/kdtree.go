package ml

import (
	"sort"
)

// kdTree is a static k-d index over standardized feature rows, used to
// accelerate k-NN queries. The layout is flat and leaf-bucketed: node
// metadata lives in dense parallel slices (no per-node heap objects), the
// two children of an interior node are adjacent records (left = first,
// right = first+1), and the points themselves are copied into one
// contiguous backing array in tree order, so a leaf scan is a tight loop
// over adjacent memory. Interior nodes hold no points — they only split —
// which is what lets the scan stay branch-light.
//
// Every node also carries the tight bounding box of the points beneath
// it. The search skips a subtree or leaf whose box lies at or beyond the
// current worst-of-k distance (see boxWithin): a box bounds all of its
// points on every axis at once, where a splitting plane bounds them on
// one. The box distance never exceeds the computed distance of any point
// inside, so a skipped point would have failed the heap's strict
// d2 < worst acceptance anyway — the heap evolves step for step as in an
// unpruned scan, and the k-nearest set is identical to brute force's up
// to exact distance ties.
type kdTree struct {
	// Per-node columns, index-parallel. count[id] > 0 marks a leaf.
	axis   []int32   // interior: split axis
	thresh []float64 // interior: split value (left side strictly below)
	first  []int32   // interior: left child id; leaf: first point slot
	count  []int32   // leaf: points in the bucket; 0 for interior
	// box is node-major: box[id*2*dims:][:dims] is the node's lower
	// corner, the next dims values its upper corner.
	box []float64

	// Point storage in tree order.
	coords []float64 // slot-major rows: coords[slot*dims : (slot+1)*dims]
	ptIdx  []int32   // slot -> index into the owner's row storage
	dims   int
}

// kdLeafSize is the bucket capacity: big enough that the contiguous scan
// amortises the descent, small enough that pruning still skips most data.
const kdLeafSize = 16

// buildKDTree constructs the tree by recursive median split on the axis
// of greatest spread, bucketing points into leaves of up to kdLeafSize.
func buildKDTree(points [][]float64, n int) *kdTree {
	t := &kdTree{}
	if n == 0 {
		return t
	}
	t.dims = len(points[0])
	t.coords = make([]float64, 0, n*t.dims)
	t.ptIdx = make([]int32, 0, n)
	b := kdBuilder{t: t, points: points}
	b.sorter.points = points
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	b.alloc(1)
	b.fill(0, idx)
	return t
}

// kdBuilder carries the construction state; the sorter is reused across
// splits so sorting never allocates a fresh closure per node.
type kdBuilder struct {
	t      *kdTree
	points [][]float64
	sorter kdAxisSorter
}

// alloc appends n zeroed node records and returns the id of the first.
func (b *kdBuilder) alloc(n int) int32 {
	t := b.t
	id := int32(len(t.first))
	for i := 0; i < n; i++ {
		t.axis = append(t.axis, 0)
		t.thresh = append(t.thresh, 0)
		t.first = append(t.first, 0)
		t.count = append(t.count, 0)
	}
	t.box = append(t.box, make([]float64, 2*n*t.dims)...)
	return id
}

// fill turns the already-allocated record id into a leaf or a split over
// the given points.
func (b *kdBuilder) fill(id int32, idx []int) {
	if len(idx) <= kdLeafSize {
		b.leaf(id, idx)
		return
	}
	axis := b.widestAxis(idx)
	b.sorter.idx, b.sorter.axis = idx, axis
	sort.Stable(&b.sorter)
	mid := len(idx) / 2
	// Move mid left past duplicates so the split value strictly bounds the
	// left side: every left point is < thresh, every right point >= thresh,
	// which is what the pruning bound relies on.
	for mid > 0 && b.points[idx[mid-1]][axis] == b.points[idx[mid]][axis] {
		mid--
	}
	if mid == 0 {
		// The whole lower half repeats one value (common for sparse
		// features like a mostly-zero queue column): split above the run
		// instead, at the first strictly larger value.
		mid = len(idx) / 2
		for mid < len(idx) && b.points[idx[mid]][axis] == b.points[idx[mid-1]][axis] {
			mid++
		}
		if mid == len(idx) {
			// Constant on the widest axis — all axes constant, so the
			// points are identical. Bucket the lot.
			b.leaf(id, idx)
			return
		}
	}
	left := b.alloc(2) // children adjacent: right child is left+1
	t := b.t
	t.axis[id] = int32(axis)
	t.thresh[id] = b.points[idx[mid]][axis]
	t.first[id] = left
	t.count[id] = 0
	b.fill(left, idx[:mid])
	b.fill(left+1, idx[mid:])
	// An interior box is the union of its children's.
	lo, hi := t.nodeBox(id)
	llo, lhi := t.nodeBox(left)
	rlo, rhi := t.nodeBox(left + 1)
	for d := range lo {
		lo[d] = min(llo[d], rlo[d])
		hi[d] = max(lhi[d], rhi[d])
	}
}

// leaf copies the bucket's points into the contiguous backing array.
func (b *kdBuilder) leaf(id int32, idx []int) {
	t := b.t
	t.first[id] = int32(len(t.ptIdx))
	t.count[id] = int32(len(idx))
	lo, hi := t.nodeBox(id)
	copy(lo, b.points[idx[0]])
	copy(hi, b.points[idx[0]])
	for _, p := range idx {
		t.ptIdx = append(t.ptIdx, int32(p))
		t.coords = append(t.coords, b.points[p]...)
		for d, v := range b.points[p] {
			lo[d] = min(lo[d], v)
			hi[d] = max(hi[d], v)
		}
	}
}

// nodeBox returns views of node id's lower and upper box corners.
func (t *kdTree) nodeBox(id int32) (lo, hi []float64) {
	off := int(id) * 2 * t.dims
	return t.box[off : off+t.dims], t.box[off+t.dims : off+2*t.dims]
}

func (b *kdBuilder) widestAxis(idx []int) int {
	if len(idx) == 0 || len(b.points[idx[0]]) == 0 {
		return 0
	}
	dims := len(b.points[idx[0]])
	best, bestSpread := 0, -1.0
	for d := 0; d < dims; d++ {
		lo, hi := b.points[idx[0]][d], b.points[idx[0]][d]
		for _, i := range idx[1:] {
			v := b.points[i][d]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if spread := hi - lo; spread > bestSpread {
			bestSpread = spread
			best = d
		}
	}
	return best
}

// kdAxisSorter stable-sorts point indices by one coordinate without the
// per-split closure allocation of sort.Slice.
type kdAxisSorter struct {
	idx    []int
	points [][]float64
	axis   int
}

func (s *kdAxisSorter) Len() int { return len(s.idx) }
func (s *kdAxisSorter) Less(a, b int) bool {
	return s.points[s.idx[a]][s.axis] < s.points[s.idx[b]][s.axis]
}
func (s *kdAxisSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// search collects the k nearest stored points to q into b's heap (callers
// drain it with sortedInto for ascending-distance order) and adds the
// query, the leaves it scanned and their points to b.Work. b's stack is
// reusable traversal scratch: it grows once to the tree depth and is then
// shared by every query of a batch, so repeated searches allocate nothing.
//
// The traversal is the classic near-first recursion made iterative:
// descend to the nearest leaf, pushing every far sibling, scan the leaf,
// then pop. The stack is LIFO, so a far entry is popped exactly when its
// near sibling's subtree has completed. Once the heap holds k candidates,
// a popped subtree or a reached leaf whose box is not strictly nearer
// than the worst of them is skipped: none of its points could enter the
// heap, so the heap changes exactly as in an unpruned scan of the same
// leaf order, and so exactly as under plane-only pruning (the test oracle).
func (t *kdTree) search(q []float64, k int, b *Buf) {
	if len(t.first) == 0 {
		return
	}
	h := &b.heap
	st := b.stack[:0]
	b.Work.Queries++
	id := int32(0)
	for {
		for t.count[id] == 0 {
			near := t.first[id]
			far := near + 1
			if q[t.axis[id]]-t.thresh[id] > 0 {
				near, far = far, near
			}
			st = append(st, far)
			id = near
		}
		if h.Len() < k || t.boxWithin(id, q, (*h)[0].d2) {
			t.scanLeaf(id, q, k, h)
			b.Work.Leaves++
			b.Work.Points += int64(t.count[id])
		}
		for {
			if len(st) == 0 {
				b.stack = st
				return
			}
			id = st[len(st)-1]
			st = st[:len(st)-1]
			if h.Len() < k || t.boxWithin(id, q, (*h)[0].d2) {
				break
			}
		}
	}
}

// boxWithin reports whether node id's box lies strictly nearer to q than
// bound. The box distance sums, in dimension order like sqDist, the
// squared gap from q to the box on every axis q lies outside of (axes
// inside contribute nothing). Float subtraction, squaring and addition
// are monotone, and every point p of the box is at least as far from q as
// the box on each axis, so the sum never exceeds the computed sqDist of
// any point in the box: when it reaches bound, every point there fails
// the strict d2 < bound test. Partial sums only grow, so it stops at the
// first axis that reaches bound.
func (t *kdTree) boxWithin(id int32, q []float64, bound float64) bool {
	lo, hi := t.nodeBox(id)
	lo, hi = lo[:len(q)], hi[:len(q)]
	var s float64
	for i, v := range q {
		var d float64
		if v < lo[i] {
			d = v - lo[i]
		} else if v > hi[i] {
			d = v - hi[i]
		} else {
			continue
		}
		s += d * d
		if s >= bound {
			return false
		}
	}
	return true
}

// scanLeaf runs one leaf bucket through the neighbour heap. The warm-up
// phase (heap not yet holding k candidates) pays the full distance and
// pushes unconditionally; the steady phase runs the branch-minimal kernel
// against the current worst-of-k distance and replaces the heap root on
// acceptance — exactly the two cases of the recursive leaf scan, with the
// heap-fullness branch hoisted out of the per-point loop.
func (t *kdTree) scanLeaf(id int32, q []float64, k int, h *neighborHeap) {
	slot := t.first[id]
	c := t.count[id]
	off := int(slot) * t.dims
	s := int32(0)
	for ; s < c && h.Len() < k; s++ {
		h.push(neighbor{int(t.ptIdx[slot+s]), sqDist(q, t.coords[off:off+t.dims])})
		off += t.dims
	}
	for ; s < c; s++ {
		p := t.coords[off : off+t.dims]
		off += t.dims
		if d2, within := leafDistWithin(q, p, (*h)[0].d2); within {
			(*h)[0] = neighbor{int(t.ptIdx[slot+s]), d2}
			h.fixRoot()
		}
	}
}

// leafDistWithin is the leaf-scan distance kernel: squared Euclidean
// distance with the partial-distance exit hoisted from once per dimension
// to once per unrolled 4-wide block. Rejection is unchanged — partial sums
// are monotone, so "some prefix ≥ bound" and "the full sum ≥ bound" are
// the same predicate no matter how often it is tested — and accepted sums
// accumulate through a single accumulator in the same dimension order as
// sqDist, so accepted values are bit-identical too. (A multi-accumulator
// reassociation would vectorize better but change float results; the
// frozen parity oracles forbid that.)
func leafDistWithin(q, p []float64, bound float64) (float64, bool) {
	p = p[:len(q)] // bounds-check hint for the unrolled loads below
	var s float64
	i := 0
	for ; i+4 <= len(q); i += 4 {
		d0 := q[i] - p[i]
		s += d0 * d0
		d1 := q[i+1] - p[i+1]
		s += d1 * d1
		d2 := q[i+2] - p[i+2]
		s += d2 * d2
		d3 := q[i+3] - p[i+3]
		s += d3 * d3
		if s >= bound {
			return 0, false
		}
	}
	for ; i < len(q); i++ {
		d := q[i] - p[i]
		s += d * d
	}
	if s >= bound {
		return 0, false
	}
	return s, true
}

// sqDistWithin is sqDist with an early exit once the partial sum reaches
// bound. Partial sums only grow, so a rejected point is exactly a point
// whose full distance would fail the d2 < bound test, and an accepted
// point's distance is the same sum in the same order — selection and
// values are bit-identical to the full computation. leafDistWithin is the
// block-unrolled form of the same predicate; this scalar form is kept as
// the reference (the parity oracle scans with it).
func sqDistWithin(a, b []float64, bound float64) (float64, bool) {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
		if s >= bound {
			return 0, false
		}
	}
	return s, true
}
