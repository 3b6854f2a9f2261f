package ml_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/ml"
	"repro/internal/predict"
	"repro/internal/rng"
)

// sameJSON fails unless a and b serialize to the same bytes.
func sameJSON(t *testing.T, name string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Fatalf("%s: model differs from the reference at byte %d:\n got  …%s\n want …%s",
			name, i, g[lo:min(i+40, len(g))], w[lo:min(i+40, len(w))])
	}
}

// tieHeavyData builds rows whose columns tie on purpose: a column of few
// distinct values, a copy of it, a constant column and a continuous one.
// Targets are distinct, so an order change among tied values changes the
// running sums of the split search.
func tieHeavyData(rows int, seed uint64) *ml.Dataset {
	s := rng.New(seed, 3)
	d := ml.NewDataset([]string{"few", "copy", "const", "cont"})
	for i := 0; i < rows; i++ {
		few := float64(int(s.Uniform(0, 4)))
		cont := s.Uniform(0, 10)
		d.Add([]float64{few, few, 3, cont}, few*2+cont*0.3+s.Norm(0, 0.5))
	}
	return d
}

// TestM5PTrainMatchesReference pins TrainM5P to the reference trainer bit
// for bit: the serialized trees must be identical. The data are the
// harvested VM RT, VM CPU and PM CPU sets at two seeds, and synthetic
// tie-heavy sets: few distinct values, duplicated and constant columns,
// and small sets whose nodes hover around the sort's insertion-sort
// cutoff of 12 rows.
func TestM5PTrainMatchesReference(t *testing.T) {
	type tc struct {
		name string
		d    *ml.Dataset
		cfgs []ml.M5PConfig
	}
	bundleCfgs := []ml.M5PConfig{ml.DefaultM5PConfig(4), ml.DefaultM5PConfig(2)}
	allCfgs := append(bundleCfgs,
		ml.M5PConfig{MinLeaf: 1, Smoothing: true, SmoothK: 15, Pruning: true, PruneFactor: 1, Ridge: 1e-6, SDRThreshold: 0.01},
		ml.M5PConfig{MinLeaf: 3, Smoothing: false, Pruning: false, ClampToRange: true, SDRThreshold: 0.01}, // Ridge 0
		ml.M5PConfig{MinLeaf: 2, Smoothing: true, SmoothK: 15, Pruning: true, PruneFactor: 2, Ridge: -1},   // every node falls back to the mean
	)
	var cases []tc
	for _, seed := range []uint64{42, 160} {
		h, err := predict.Collect(predict.DefaultHarvestOpts(seed))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			tc{fmt.Sprintf("VMRT/seed%d", seed), h.VMRT, bundleCfgs},
			tc{fmt.Sprintf("VMCPU/seed%d", seed), h.VMCPU, bundleCfgs},
			tc{fmt.Sprintf("PMCPU/seed%d", seed), h.PMCPU, bundleCfgs},
		)
	}
	cases = append(cases,
		tc{"duplicate-heavy", ml.DuplicateHeavyData(600, 71), allCfgs},
		tc{"sparse", ml.SparseParityData(600, 72), allCfgs},
		tc{"tie-heavy", tieHeavyData(800, 73), allCfgs},
	)
	for n := 8; n <= 40; n += 2 {
		cases = append(cases, tc{fmt.Sprintf("tie-heavy-%d", n), tieHeavyData(n, uint64(n)), allCfgs})
	}
	for _, c := range cases {
		for _, cfg := range c.cfgs {
			got, err := ml.TrainM5P(c.d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ml.TrainM5PReference(c.d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameJSON(t, fmt.Sprintf("%s %+v", c.name, cfg), got, want)
		}
	}
}

// TestTrainLinearMatchesReference pins TrainLinear to the row-wise
// reference QR bit for bit, errors included: harvested sets, ordinary
// and ridge fits, fewer rows than columns, collinear and constant
// columns, an empty set and a negative ridge.
func TestTrainLinearMatchesReference(t *testing.T) {
	h, err := predict.Collect(predict.DefaultHarvestOpts(42))
	if err != nil {
		t.Fatal(err)
	}
	collinear := ml.NewDataset([]string{"a", "b", "c"})
	constant := ml.NewDataset([]string{"a", "k"})
	s := rng.New(9, 1)
	for i := 0; i < 40; i++ {
		a := s.Uniform(-5, 5)
		collinear.Add([]float64{a, 2 * a, s.Uniform(0, 1)}, 3*a+s.Norm(0, 0.1))
		constant.Add([]float64{a, 7}, a-1+s.Norm(0, 0.1))
	}
	few := ml.NewDataset([]string{"a", "b", "c", "d", "e"})
	few.Add([]float64{1, 2, 3, 4, 5}, 1)
	few.Add([]float64{2, 1, 0, 1, 2}, 2)
	few.Add([]float64{0, 0, 1, 0, 0}, 3)
	for _, c := range []struct {
		name string
		d    *ml.Dataset
	}{
		{"VMMem", h.VMMem},
		{"VMCPU", h.VMCPU},
		{"PMCPU", h.PMCPU},
		{"collinear", collinear},
		{"constant-column", constant},
		{"fewer-rows-than-columns", few},
		{"duplicate-heavy", ml.DuplicateHeavyData(300, 74)},
		{"empty", ml.NewDataset([]string{"a"})},
	} {
		for _, lambda := range []float64{0, 1e-6, 0.5, -1} {
			name := fmt.Sprintf("%s lambda=%v", c.name, lambda)
			got, gotErr := ml.TrainLinear(c.d, lambda)
			want, wantErr := ml.TrainLinearReference(c.d, lambda)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
			}
			if wantErr == nil {
				sameJSON(t, name, got, want)
			}
		}
	}
}
