package network

import (
	"math"
	"testing"

	"repro/internal/model"
)

func TestPaperTopologyTableII(t *testing.T) {
	top := PaperTopology()
	if top.NumDCs() != 4 {
		t.Fatalf("NumDCs = %d", top.NumDCs())
	}
	wantNames := []string{"Brisbane", "Bangaluru", "Barcelona", "Boston"}
	wantPrices := []float64{0.1314, 0.1218, 0.1513, 0.1120}
	for i := range wantNames {
		if got := top.Name(model.DCID(i)); got != wantNames[i] {
			t.Errorf("Name(%d) = %q", i, got)
		}
		if got := top.EnergyPrice(model.DCID(i)); got != wantPrices[i] {
			t.Errorf("EnergyPrice(%d) = %v", i, got)
		}
	}
	// Spot-check Table II latencies (ms -> s).
	checks := []struct {
		a, b model.DCID
		ms   float64
	}{
		{0, 1, 265}, {0, 2, 390}, {0, 3, 255},
		{1, 2, 250}, {1, 3, 380}, {2, 3, 90},
	}
	for _, c := range checks {
		if got := top.latDCDC[c.a][c.b]; math.Abs(got-c.ms/1000) > 1e-12 {
			t.Errorf("latency %v-%v = %v, want %v", c.a, c.b, got, c.ms/1000)
		}
		if top.latDCDC[c.b][c.a] != top.latDCDC[c.a][c.b] {
			t.Errorf("latency not symmetric for %v-%v", c.a, c.b)
		}
	}
	for i := 0; i < 4; i++ {
		if top.latDCDC[model.DCID(i)][model.DCID(i)] != 0 {
			t.Errorf("self latency not zero for %d", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	_, err := New(nil, nil, nil)
	if err == nil {
		t.Fatal("accepted empty topology")
	}
	_, err = New([]string{"a"}, []float64{0.1, 0.2}, [][]float64{{0}})
	if err == nil {
		t.Fatal("accepted mismatched prices")
	}
	_, err = New([]string{"a", "b"}, []float64{0.1, 0.2}, [][]float64{{0, 1}, {2, 0}})
	if err == nil {
		t.Fatal("accepted asymmetric matrix")
	}
	_, err = New([]string{"a", "b"}, []float64{0.1, 0.2}, [][]float64{{1, 1}, {1, 0}})
	if err == nil {
		t.Fatal("accepted non-zero diagonal")
	}
	_, err = New([]string{"a", "b"}, []float64{0.1, 0.2}, [][]float64{{0, -1}, {-1, 0}})
	if err == nil {
		t.Fatal("accepted negative latency")
	}
}

func TestMigrationDuration(t *testing.T) {
	top := PaperTopology()
	// 4 GB image Barcelona -> Boston over 10 Gbps:
	// transfer = 4*8*1000/10000 = 3.2 s, + 5 s freeze/restore + 2*0.09 rtt.
	got := top.MigrationDuration(4, 2, 3)
	want := 5.0 + 3.2 + 0.18
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MigrationDuration = %v, want %v", got, want)
	}
	// Intra-DC migration costs only freeze/restore + transfer.
	gotLocal := top.MigrationDuration(4, 2, 2)
	if math.Abs(gotLocal-(5.0+3.2)) > 1e-9 {
		t.Fatalf("local MigrationDuration = %v", gotLocal)
	}
	// Negative size treated as zero.
	if got := top.MigrationDuration(-1, 0, 1); got < 5 {
		t.Fatalf("negative image duration = %v", got)
	}
}

func TestMigrationDurationGrowsWithImage(t *testing.T) {
	top := PaperTopology()
	small := top.MigrationDuration(1, 0, 1)
	big := top.MigrationDuration(16, 0, 1)
	if big <= small {
		t.Fatal("bigger image should migrate slower")
	}
}

func TestMeanLatencyFrom(t *testing.T) {
	top := PaperTopology()
	loads := model.LoadVector{
		{RPS: 10}, // Brisbane clients
		{},        // none
		{RPS: 30}, // Barcelona clients
		{},
	}
	// Hosted in Barcelona (2): 10 req at 390ms + 30 req at 0.
	got := top.MeanLatencyFrom(2, loads)
	want := (10*0.390 + 30*0) / 40
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanLatencyFrom = %v, want %v", got, want)
	}
	if top.MeanLatencyFrom(0, model.LoadVector{{}, {}, {}, {}}) != 0 {
		t.Fatal("no-load latency should be 0")
	}
}

func TestLatencyClientDCEqualsDCDC(t *testing.T) {
	top := PaperTopology()
	for l := 0; l < 4; l++ {
		for d := 0; d < 4; d++ {
			if top.LatencyClientDC(model.LocationID(l), model.DCID(d)) != top.latDCDC[model.DCID(l)][model.DCID(d)] {
				t.Fatalf("client latency mismatch at %d,%d", l, d)
			}
		}
	}
}
