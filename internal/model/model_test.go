package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestResourcesAddSub(t *testing.T) {
	a := Resources{CPUPct: 100, MemMB: 512, BWMbps: 10}
	b := Resources{CPUPct: 50, MemMB: 256, BWMbps: 5}
	sum := a.Add(b)
	if sum != (Resources{150, 768, 15}) {
		t.Fatalf("Add = %v", sum)
	}
	if got := sum.Sub(b); got != a {
		t.Fatalf("Sub = %v, want %v", got, a)
	}
}

func TestResourcesScale(t *testing.T) {
	a := Resources{CPUPct: 100, MemMB: 512, BWMbps: 10}
	if got := a.Scale(0.5); got != (Resources{50, 256, 5}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := a.Scale(0); got != (Resources{}) {
		t.Fatalf("Scale(0) = %v", got)
	}
}

func TestResourcesFitsIn(t *testing.T) {
	cap := Resources{CPUPct: 400, MemMB: 4096, BWMbps: 100}
	tests := []struct {
		r    Resources
		want bool
	}{
		{Resources{400, 4096, 100}, true},
		{Resources{0, 0, 0}, true},
		{Resources{401, 0, 0}, false},
		{Resources{0, 4097, 0}, false},
		{Resources{0, 0, 100.5}, false},
	}
	for _, tc := range tests {
		if got := tc.r.FitsIn(cap); got != tc.want {
			t.Errorf("FitsIn(%v) = %v, want %v", tc.r, got, tc.want)
		}
	}
}

func TestResourcesDominant(t *testing.T) {
	cap := Resources{CPUPct: 400, MemMB: 4096, BWMbps: 100}
	r := Resources{CPUPct: 200, MemMB: 1024, BWMbps: 90}
	// bw share 0.9 dominates cpu 0.5 and mem 0.25.
	if got := r.Dominant(cap); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("Dominant = %v, want 0.9", got)
	}
	if got := (Resources{}).Dominant(cap); got != 0 {
		t.Fatalf("Dominant(zero) = %v", got)
	}
	// Zero capacity components are ignored rather than dividing by zero.
	if got := r.Dominant(Resources{CPUPct: 400}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Dominant with partial capacity = %v", got)
	}
}

func TestResourcesAddCommutativeProperty(t *testing.T) {
	f := func(a, b Resources) bool {
		x, y := a.Add(b), b.Add(a)
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourcesMinMaxProperty(t *testing.T) {
	f := func(a, b Resources) bool {
		mn, mx := a.Min(b), a.Max(b)
		return mn.CPUPct <= mx.CPUPct && mn.MemMB <= mx.MemMB && mn.BWMbps <= mx.BWMbps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSLAFulfilmentShape(t *testing.T) {
	terms := SLATerms{RT0: 0.1, Alpha: 10}
	tests := []struct {
		rt   float64
		want float64
	}{
		{0, 1},
		{0.05, 1},
		{0.1, 1},               // exactly RT0: full
		{1.0, 0},               // alpha*RT0: zero
		{2.0, 0},               // beyond: zero
		{0.55, 0.5},            // midpoint of [0.1, 1.0]
		{0.1 + 0.9*0.25, 0.75}, // quarter of the way down
	}
	for _, tc := range tests {
		if got := terms.Fulfilment(tc.rt); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Fulfilment(%v) = %v, want %v", tc.rt, got, tc.want)
		}
	}
}

func TestSLAFulfilmentMonotoneProperty(t *testing.T) {
	terms := DefaultSLATerms
	f := func(a, b float64) bool {
		ra := math.Abs(a)
		rb := math.Abs(b)
		if ra > rb {
			ra, rb = rb, ra
		}
		fa, fb := terms.Fulfilment(ra), terms.Fulfilment(rb)
		return fa >= fb && fa <= 1 && fb >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadVectorTotal(t *testing.T) {
	lv := LoadVector{
		{RPS: 10, BytesInReq: 100, BytesOutRq: 1000, CPUTimeReq: 0.01},
		{RPS: 30, BytesInReq: 200, BytesOutRq: 2000, CPUTimeReq: 0.02},
		{}, // silent source
	}
	tot := lv.Total()
	if tot.RPS != 40 {
		t.Fatalf("RPS = %v", tot.RPS)
	}
	// Request-weighted means: (10*100+30*200)/40 = 175.
	if math.Abs(tot.BytesInReq-175) > 1e-9 {
		t.Fatalf("BytesInReq = %v", tot.BytesInReq)
	}
	if math.Abs(tot.CPUTimeReq-0.0175) > 1e-9 {
		t.Fatalf("CPUTimeReq = %v", tot.CPUTimeReq)
	}
}

func TestLoadVectorTotalEmpty(t *testing.T) {
	if tot := (LoadVector{}).Total(); !tot.IsZero() {
		t.Fatalf("empty vector total = %+v", tot)
	}
}

func TestLoadVectorDominantSource(t *testing.T) {
	lv := LoadVector{{RPS: 5}, {RPS: 20}, {RPS: 15}}
	loc, share := lv.DominantSource()
	if loc != 1 {
		t.Fatalf("dominant = %v", loc)
	}
	if math.Abs(share-0.5) > 1e-9 {
		t.Fatalf("share = %v", share)
	}
	loc, share = (LoadVector{{}, {}}).DominantSource()
	if loc != -1 || share != 0 {
		t.Fatalf("empty dominant = %v %v", loc, share)
	}
}

func TestPlacementCloneEqual(t *testing.T) {
	p := Placement{0: 1, 1: 2, 2: NoPM}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q[1] = 3
	if p.Equal(q) {
		t.Fatal("mutated clone still equal")
	}
	if p.Equal(Placement{0: 1, 1: 2, 3: NoPM}) {
		t.Fatal("placements over different VMs equal")
	}
}

func TestLoadScale(t *testing.T) {
	l := Load{RPS: 10, BytesInReq: 100, BytesOutRq: 200, CPUTimeReq: 0.01}
	s := l.Scale(2)
	if s.RPS != 20 || s.BytesInReq != 100 || s.BytesOutRq != 200 || s.CPUTimeReq != 0.01 {
		t.Fatalf("Scale = %+v", s)
	}
}
