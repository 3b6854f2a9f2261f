package ml

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// M5PConfig exposes the hyper-parameters of the M5P model-tree learner.
type M5PConfig struct {
	// MinLeaf is WEKA's -M: the minimum number of instances per leaf.
	// The paper uses M=4 for the CPU/RT models and M=2 for network I/O.
	MinLeaf int
	// Smoothing enables Quinlan's along-path prediction smoothing.
	Smoothing bool
	// SmoothK is the smoothing constant (classic value 15).
	SmoothK float64
	// Pruning enables bottom-up subtree replacement by leaf linear models.
	Pruning bool
	// PruneFactor multiplies the pruned-error comparison: values > 1 prune
	// more aggressively. WEKA's pruning factor corresponds to 1.0.
	PruneFactor float64
	// Ridge is the regularisation used for leaf/node linear models; a small
	// positive value keeps near-collinear leaf fits stable.
	Ridge float64
	// SDRThreshold stops splitting when a node's target deviation falls
	// below this fraction of the root deviation (M5 uses 5%).
	SDRThreshold float64
	// ClampToRange bounds predictions to the training target range,
	// guarding the leaf linear models against wild extrapolation on
	// off-manifold queries.
	ClampToRange bool
}

// DefaultM5PConfig mirrors WEKA M5P defaults with M as given.
func DefaultM5PConfig(minLeaf int) M5PConfig {
	return M5PConfig{
		MinLeaf:      minLeaf,
		Smoothing:    true,
		SmoothK:      15,
		Pruning:      true,
		PruneFactor:  1.0,
		Ridge:        1e-6,
		SDRThreshold: 0.05,
		ClampToRange: true,
	}
}

// M5P is a fitted model tree. Inference runs over a flat structure of
// arrays: per-node columns (split feature/threshold, child and parent
// links, instance counts) plus all linear-model coefficients packed into
// one contiguous backing slice. Predict descends iteratively and evaluates
// exactly one linear model — with smoothing on, the per-leaf effective
// model that compile folded the whole ancestor blend into — no recursion,
// no per-node heap objects, no pointer chasing.
//
// Training still grows a conventional pointer-linked tree (grow/prune
// need mutable structure); TrainM5P compiles it into the flat layout and
// drops the pointers.
type M5P struct {
	cfg      M5PConfig
	yLo, yHi float64 // training target range, for ClampToRange

	// Per-node columns. Children of an interior node are adjacent records
	// (left = left[id], right = left[id]+1). feature < 0 marks a leaf.
	feature []int32
	thresh  []float64
	left    []int32
	parent  []int32   // -1 at the root
	n       []float64 // training instances that reached the node

	// Node linear models: yhat = intercept[id] + coefs[coefOff[id]+j]*x[j].
	intercept []float64
	coefOff   []int32
	coefLen   []int32
	coefs     []float64 // all nodes' coefficients, one backing array

	// Precompiled smoothed leaf models. Quinlan's along-path blend
	// p := (n*p + k*q)/(n + k) is, for a fixed leaf, a fixed affine
	// combination of the leaf's and its ancestors' linear models — so
	// compile folds the whole path into one effective model per leaf and
	// Predict pays a single dot product instead of an LM evaluation per
	// ancestor. Entries are empty for interior nodes and when smoothing is
	// off.
	smIntercept []float64
	smCoefOff   []int32
	smCoefLen   []int32
	smCoefs     []float64
}

// m5pNode is the mutable training-time representation.
type m5pNode struct {
	// Split (interior nodes only).
	feature int
	thresh  float64
	left    *m5pNode
	right   *m5pNode
	// Linear model: present at every node (used for smoothing and pruning),
	// authoritative at leaves.
	lm *Linear
	n  int // training instances that reached the node
}

func (n *m5pNode) isLeaf() bool { return n.left == nil }

// TrainM5P grows, prunes and (optionally) smooths an M5P model tree, then
// compiles it into the flat inference layout.
func TrainM5P(d *Dataset, cfg M5PConfig) (*M5P, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: cannot fit M5P on empty dataset")
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 4
	}
	if cfg.SmoothK <= 0 {
		cfg.SmoothK = 15
	}
	if cfg.PruneFactor <= 0 {
		cfg.PruneFactor = 1
	}
	if cfg.SDRThreshold <= 0 {
		cfg.SDRThreshold = 0.05
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	rootSD := stddevAt(d, idx)
	t := &M5P{cfg: cfg}
	t.yLo, t.yHi = d.YRange()
	root := t.grow(d, idx, rootSD)
	if cfg.Pruning {
		t.prune(d, root, idx)
	}
	t.compile(root)
	return t, nil
}

// compile flattens the pointer tree into the dense inference columns.
func (m *M5P) compile(root *m5pNode) {
	m.feature = m.feature[:0]
	m.thresh = m.thresh[:0]
	m.left = m.left[:0]
	m.parent = m.parent[:0]
	m.n = m.n[:0]
	m.intercept = m.intercept[:0]
	m.coefOff = m.coefOff[:0]
	m.coefLen = m.coefLen[:0]
	m.coefs = m.coefs[:0]
	if root == nil {
		return
	}
	m.allocNodes(1, -1)
	m.fillNode(0, root)
	if m.cfg.Smoothing {
		m.compileSmoothed()
	}
}

// compileSmoothed folds the along-path smoothing blend into one effective
// linear model per leaf. Walking the blend p := (n_a*p + k*q_a)/(n_a + k)
// from the leaf to the root multiplies every already-accumulated model's
// weight by n_a/(n_a+k) and adds ancestor a with weight k/(n_a+k); the
// resulting per-model weights depend only on the path, so the weighted sum
// of intercepts and (zero-padded) coefficient vectors is the smoothed
// prediction as a single affine model.
func (m *M5P) compileSmoothed() {
	nn := len(m.feature)
	m.smIntercept = append(m.smIntercept[:0], make([]float64, nn)...)
	m.smCoefOff = append(m.smCoefOff[:0], make([]int32, nn)...)
	m.smCoefLen = append(m.smCoefLen[:0], make([]int32, nn)...)
	m.smCoefs = m.smCoefs[:0]
	k := m.cfg.SmoothK
	var coef []float64
	for id := 0; id < nn; id++ {
		if m.feature[id] >= 0 {
			continue // interior
		}
		// Path width: the widest model the blend touches.
		width := int(m.coefLen[id])
		for a := m.parent[id]; a >= 0; a = m.parent[a] {
			if w := int(m.coefLen[a]); w > width {
				width = w
			}
		}
		if cap(coef) < width {
			coef = make([]float64, width)
		}
		coef = coef[:width]
		for j := range coef {
			coef[j] = 0
		}
		// Leaf model starts with weight 1; each ancestor rescales the
		// accumulated sum and joins with its own blend share.
		inter := m.intercept[id]
		off := int(m.coefOff[id])
		for j := 0; j < int(m.coefLen[id]); j++ {
			coef[j] = m.coefs[off+j]
		}
		for a := m.parent[id]; a >= 0; a = m.parent[a] {
			keep := m.n[a] / (m.n[a] + k)
			add := k / (m.n[a] + k)
			inter *= keep
			for j := range coef {
				coef[j] *= keep
			}
			inter += add * m.intercept[a]
			off := int(m.coefOff[a])
			for j := 0; j < int(m.coefLen[a]); j++ {
				coef[j] += add * m.coefs[off+j]
			}
		}
		m.smIntercept[id] = inter
		m.smCoefOff[id] = int32(len(m.smCoefs))
		m.smCoefLen[id] = int32(width)
		m.smCoefs = append(m.smCoefs, coef...)
	}
}

// smPredict evaluates leaf id's precompiled smoothed model, truncating at
// the row width exactly as lmPredict zero-pads short rows.
func (m *M5P) smPredict(id int32, x []float64) float64 {
	y := m.smIntercept[id]
	off := int(m.smCoefOff[id])
	n := int(m.smCoefLen[id])
	if n > len(x) {
		n = len(x)
	}
	for j, c := range m.smCoefs[off : off+n] {
		y += c * x[j]
	}
	return y
}

// allocNodes appends count zeroed node records with the given parent and
// returns the id of the first.
func (m *M5P) allocNodes(count int, parent int32) int32 {
	id := int32(len(m.feature))
	for i := 0; i < count; i++ {
		m.feature = append(m.feature, -1)
		m.thresh = append(m.thresh, 0)
		m.left = append(m.left, -1)
		m.parent = append(m.parent, parent)
		m.n = append(m.n, 0)
		m.intercept = append(m.intercept, 0)
		m.coefOff = append(m.coefOff, 0)
		m.coefLen = append(m.coefLen, 0)
	}
	return id
}

func (m *M5P) fillNode(id int32, node *m5pNode) {
	m.n[id] = float64(node.n)
	m.intercept[id] = node.lm.Intercept
	m.coefOff[id] = int32(len(m.coefs))
	m.coefLen[id] = int32(len(node.lm.Coef))
	m.coefs = append(m.coefs, node.lm.Coef...)
	if node.isLeaf() {
		m.feature[id] = -1
		return
	}
	m.feature[id] = int32(node.feature)
	m.thresh[id] = node.thresh
	left := m.allocNodes(2, id) // children adjacent: right is left+1
	m.left[id] = left
	m.fillNode(left, node.left)
	m.fillNode(left+1, node.right)
}

// lmPredict evaluates node id's linear model on x with the exact loop
// shape of Linear.Predict (zero-padding rows shorter than the model).
func (m *M5P) lmPredict(id int32, x []float64) float64 {
	y := m.intercept[id]
	off := int(m.coefOff[id])
	for j := 0; j < int(m.coefLen[id]); j++ {
		if j < len(x) {
			y += m.coefs[off+j] * x[j]
		}
	}
	return y
}

// grow recursively builds the unpruned tree and fits a linear model at
// every node.
func (t *M5P) grow(d *Dataset, idx []int, rootSD float64) *m5pNode {
	node := &m5pNode{n: len(idx), feature: -1}
	node.lm = t.fitNodeModel(d, idx)
	sd := stddevAt(d, idx)
	if len(idx) < 2*t.cfg.MinLeaf || sd <= t.cfg.SDRThreshold*rootSD {
		return node
	}
	feat, thresh, ok := t.bestSplit(d, idx, sd)
	if !ok {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if d.X[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.cfg.MinLeaf || len(right) < t.cfg.MinLeaf {
		return node
	}
	node.feature = feat
	node.thresh = thresh
	node.left = t.grow(d, left, rootSD)
	node.right = t.grow(d, right, rootSD)
	return node
}

// bestSplit maximises the standard deviation reduction
// SDR = sd(S) - sum_i |S_i|/|S| * sd(S_i) over all (feature, threshold)
// candidates, scanning each feature in sorted order with running moments so
// every threshold costs O(1).
func (t *M5P) bestSplit(d *Dataset, idx []int, parentSD float64) (feat int, thresh float64, ok bool) {
	bestSDR := 0.0
	n := len(idx)
	order := make([]int, n)
	for f := 0; f < d.Width(); f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return d.X[order[a]][f] < d.X[order[b]][f] })
		// Running sums from the left.
		var sumL, sqL float64
		var sumR, sqR float64
		for _, i := range order {
			sumR += d.Y[i]
			sqR += d.Y[i] * d.Y[i]
		}
		for k := 0; k < n-1; k++ {
			y := d.Y[order[k]]
			sumL += y
			sqL += y * y
			sumR -= y
			sqR -= y * y
			// Candidate threshold between distinct attribute values only.
			xv, xn := d.X[order[k]][f], d.X[order[k+1]][f]
			if xv == xn {
				continue
			}
			nl, nr := k+1, n-k-1
			if nl < t.cfg.MinLeaf || nr < t.cfg.MinLeaf {
				continue
			}
			sdl := sdFromMoments(sumL, sqL, nl)
			sdr := sdFromMoments(sumR, sqR, nr)
			red := parentSD - (float64(nl)*sdl+float64(nr)*sdr)/float64(n)
			if red > bestSDR {
				bestSDR = red
				feat = f
				thresh = (xv + xn) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

// fitNodeModel fits the node's linear model, falling back to the target
// mean when the solve fails (e.g. fully degenerate features).
func (t *M5P) fitNodeModel(d *Dataset, idx []int) *Linear {
	sub := d.Subset(idx)
	lm, err := TrainLinear(sub, t.cfg.Ridge)
	if err != nil {
		return meanModel(sub.Y)
	}
	return lm
}

// prune walks bottom-up replacing subtrees whose (complexity-adjusted)
// linear-model error is no worse than the subtree's.
func (t *M5P) prune(d *Dataset, node *m5pNode, idx []int) float64 {
	if node.isLeaf() {
		return adjustedError(t.leafErr(d, node, idx), len(idx), node.lm.NumParams(), t.cfg.PruneFactor)
	}
	var left, right []int
	for _, i := range idx {
		if d.X[i][node.feature] <= node.thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	errL := t.prune(d, node.left, left)
	errR := t.prune(d, node.right, right)
	subtreeErr := (errL*float64(len(left)) + errR*float64(len(right))) / float64(len(idx))
	nodeErr := adjustedError(t.leafErr(d, node, idx), len(idx), node.lm.NumParams(), t.cfg.PruneFactor)
	if nodeErr <= subtreeErr {
		node.left, node.right = nil, nil
		node.feature = -1
		return nodeErr
	}
	return subtreeErr
}

// leafErr is the mean absolute error of the node's linear model on the
// instances that reach it.
func (t *M5P) leafErr(d *Dataset, node *m5pNode, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += math.Abs(node.lm.Predict(d.X[i]) - d.Y[i])
	}
	return s / float64(len(idx))
}

// adjustedError applies M5's complexity penalty (n+v)/(n-v) to an error
// estimate so small leaves with many parameters look worse.
func adjustedError(err float64, n, v int, factor float64) float64 {
	if n <= v {
		return err * 10 * factor // hopeless leaf: strongly discourage
	}
	return err * (float64(n) + float64(v)*factor) / (float64(n) - float64(v))
}

// Predict routes the row down the tree; with smoothing the raw leaf value
// is blended with ancestor models on the way back up.
func (m *M5P) Predict(x []float64) float64 {
	v := m.predictRaw(x)
	if m.cfg.ClampToRange {
		if v < m.yLo {
			v = m.yLo
		}
		if v > m.yHi {
			v = m.yHi
		}
	}
	return v
}

// predictRaw descends the flat node columns to the leaf and evaluates the
// leaf's model — the precompiled smoothed one when smoothing is on (see
// compileSmoothed), the plain leaf model otherwise.
func (m *M5P) predictRaw(x []float64) float64 {
	id := int32(0)
	for m.feature[id] >= 0 {
		if x[m.feature[id]] <= m.thresh[id] {
			id = m.left[id]
		} else {
			id = m.left[id] + 1
		}
	}
	if m.cfg.Smoothing {
		return m.smPredict(id, x)
	}
	return m.lmPredict(id, x)
}

// String renders the tree structure for debugging.
func (m *M5P) String() string {
	var b strings.Builder
	var walk func(id int32, depth int)
	walk = func(id int32, depth int) {
		pad := strings.Repeat("  ", depth)
		if m.feature[id] < 0 {
			fmt.Fprintf(&b, "%sLM (n=%d)\n", pad, int(m.n[id]))
			return
		}
		fmt.Fprintf(&b, "%sx[%d] <= %.4g (n=%d)\n", pad, m.feature[id], m.thresh[id], int(m.n[id]))
		walk(m.left[id], depth+1)
		walk(m.left[id]+1, depth+1)
	}
	if len(m.feature) > 0 {
		walk(0, 0)
	}
	return b.String()
}

func stddevAt(d *Dataset, idx []int) float64 {
	if len(idx) < 2 {
		return 0
	}
	var sum, sq float64
	for _, i := range idx {
		sum += d.Y[i]
		sq += d.Y[i] * d.Y[i]
	}
	return sdFromMoments(sum, sq, len(idx))
}

func sdFromMoments(sum, sq float64, n int) float64 {
	if n < 1 {
		return 0
	}
	mean := sum / float64(n)
	v := sq/float64(n) - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

var _ Regressor = (*M5P)(nil)
