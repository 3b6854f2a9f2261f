package ml

import (
	"fmt"
	"math"
	"sort"
)

// Reference trainers: M5P and least squares in their plainest form. The
// split search sorts a copy of the row indices with sort.Slice, every node
// fits its model on a Subset copy of its rows, and the QR solve runs over
// one []float64 per row. TrainM5P and TrainLinear must reproduce them bit
// for bit; TestM5PTrainMatchesReference and
// TestTrainLinearMatchesReference compare the serialized models.

// refTrainM5P is TrainM5P over the reference grow and prune.
func refTrainM5P(d *Dataset, cfg M5PConfig) (*M5P, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: cannot fit M5P on empty dataset")
	}
	cfg = cfg.withDefaults()
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	r := refM5P{cfg: cfg}
	root := r.grow(d, idx, stddevAt(d, idx))
	if cfg.Pruning {
		r.prune(d, root, idx)
	}
	t := &M5P{cfg: cfg}
	t.yLo, t.yHi = d.YRange()
	t.compile(root)
	return t, nil
}

type refM5P struct{ cfg M5PConfig }

func (t refM5P) grow(d *Dataset, idx []int, rootSD float64) *m5pNode {
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

func (t refM5P) bestSplit(d *Dataset, idx []int, parentSD float64) (feat int, thresh float64, ok bool) {
	bestSDR := 0.0
	n := len(idx)
	order := make([]int, n)
	for f := 0; f < d.Width(); f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return d.X[order[a]][f] < d.X[order[b]][f] })
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

func (t refM5P) fitNodeModel(d *Dataset, idx []int) *Linear {
	sub := d.Subset(idx)
	lm, err := refTrainLinear(sub, t.cfg.Ridge)
	if err != nil {
		m := 0.0
		for _, v := range sub.Y {
			m += v
		}
		if len(sub.Y) > 0 {
			m /= float64(len(sub.Y))
		}
		return &Linear{Intercept: m}
	}
	return lm
}

func (t refM5P) prune(d *Dataset, node *m5pNode, idx []int) float64 {
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

func (t refM5P) leafErr(d *Dataset, node *m5pNode, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += math.Abs(node.lm.Predict(d.X[i]) - d.Y[i])
	}
	return s / float64(len(idx))
}

// refTrainLinear is TrainLinear over one slice per design-matrix row.
func refTrainLinear(d *Dataset, lambda float64) (*Linear, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n, p := d.Len(), d.Width()
	if n == 0 {
		return nil, fmt.Errorf("ml: cannot fit linear model on empty dataset")
	}
	if lambda < 0 {
		return nil, fmt.Errorf("ml: negative ridge lambda %v", lambda)
	}
	cols := p + 1
	if n < cols && lambda == 0 {
		lambda = 1e-6
	}
	rows := n
	if lambda > 0 {
		rows += p
	}
	a := make([][]float64, rows)
	b := make([]float64, rows)
	for i := 0; i < n; i++ {
		row := make([]float64, cols)
		copy(row, d.X[i])
		row[p] = 1
		a[i] = row
		b[i] = d.Y[i]
	}
	if lambda > 0 {
		s := math.Sqrt(lambda)
		for j := 0; j < p; j++ {
			row := make([]float64, cols)
			row[j] = s
			a[n+j] = row
		}
	}
	beta, err := refSolveQR(a, b, cols)
	if err != nil {
		return nil, err
	}
	return &Linear{Intercept: beta[p], Coef: beta[:p]}, nil
}

func refSolveQR(a [][]float64, b []float64, cols int) ([]float64, error) {
	rows := len(a)
	if rows < cols {
		return nil, fmt.Errorf("ml: QR needs rows >= cols (%d < %d)", rows, cols)
	}
	rdiag := make([]float64, cols)
	for k := 0; k < cols; k++ {
		var nrm float64
		for i := k; i < rows; i++ {
			nrm = math.Hypot(nrm, a[i][k])
		}
		if nrm != 0 {
			if a[k][k] < 0 {
				nrm = -nrm
			}
			for i := k; i < rows; i++ {
				a[i][k] /= nrm
			}
			a[k][k] += 1
			for j := k + 1; j < cols; j++ {
				var s float64
				for i := k; i < rows; i++ {
					s += a[i][k] * a[i][j]
				}
				s = -s / a[k][k]
				for i := k; i < rows; i++ {
					a[i][j] += s * a[i][k]
				}
			}
		}
		rdiag[k] = -nrm
	}
	for k := 0; k < cols; k++ {
		if rdiag[k] == 0 {
			continue
		}
		var s float64
		for i := k; i < rows; i++ {
			s += a[i][k] * b[i]
		}
		s = -s / a[k][k]
		for i := k; i < rows; i++ {
			b[i] += s * a[i][k]
		}
	}
	beta := make([]float64, cols)
	for k := cols - 1; k >= 0; k-- {
		if math.Abs(rdiag[k]) < 1e-12 {
			beta[k] = 0
			continue
		}
		s := b[k]
		for j := k + 1; j < cols; j++ {
			s -= a[k][j] * beta[j]
		}
		beta[k] = s / rdiag[k]
	}
	for _, v := range beta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("ml: QR solution not finite")
		}
	}
	return beta, nil
}
