package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestResponseTimeNoLoad(t *testing.T) {
	d := Demand{RPS: 0, CPUTimeReq: 0.01}
	g := Grant{CPUPct: 100}
	if got := ResponseTime(d, g); got != 0.01 {
		t.Fatalf("no-load RT = %v, want service floor", got)
	}
}

func TestResponseTimeLightLoad(t *testing.T) {
	// mu = (100/100)/0.01 = 100 rps; lambda = 10 -> rho = 0.1.
	d := Demand{RPS: 10, CPUTimeReq: 0.01}
	g := Grant{CPUPct: 100}
	want := 0.01 / (1 - 0.1)
	if got := ResponseTime(d, g); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RT = %v, want %v", got, want)
	}
}

func TestResponseTimeMonotoneInLoad(t *testing.T) {
	g := Grant{CPUPct: 200}
	prev := -1.0
	for rps := 1.0; rps <= 400; rps += 7 {
		rt := ResponseTime(Demand{RPS: rps, CPUTimeReq: 0.01}, g)
		if rt < prev-1e-12 {
			t.Fatalf("RT decreased at rps=%v: %v < %v", rps, rt, prev)
		}
		prev = rt
	}
}

func TestResponseTimeMonotoneInCPUProperty(t *testing.T) {
	f := func(a, b float64) bool {
		ca := 20 + math.Mod(math.Abs(a), 380)
		cb := 20 + math.Mod(math.Abs(b), 380)
		if ca > cb {
			ca, cb = cb, ca
		}
		d := Demand{RPS: 50, CPUTimeReq: 0.01}
		rtLow := ResponseTime(d, Grant{CPUPct: ca})
		rtHigh := ResponseTime(d, Grant{CPUPct: cb})
		return rtHigh <= rtLow+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResponseTimeOverloadGrows(t *testing.T) {
	g := Grant{CPUPct: 100} // mu = 100 rps
	rt150 := ResponseTime(Demand{RPS: 150, CPUTimeReq: 0.01}, g)
	rt300 := ResponseTime(Demand{RPS: 300, CPUTimeReq: 0.01}, g)
	if rt150 <= ResponseTime(Demand{RPS: 50, CPUTimeReq: 0.01}, g) {
		t.Fatal("overload RT not above underload RT")
	}
	if rt300 <= rt150 && rt300 < MaxRT {
		t.Fatalf("deeper overload should hurt more: %v vs %v", rt300, rt150)
	}
}

func TestResponseTimeCapped(t *testing.T) {
	g := Grant{CPUPct: 1}
	rt := ResponseTime(Demand{RPS: 10000, CPUTimeReq: 0.1}, g)
	if rt > MaxRT {
		t.Fatalf("RT above cap: %v", rt)
	}
	if rt != MaxRT {
		t.Fatalf("extreme overload should hit the cap, got %v", rt)
	}
}

func TestMemoryPressure(t *testing.T) {
	d := Demand{RPS: 10, CPUTimeReq: 0.01}
	healthy := ResponseTime(d, Grant{CPUPct: 100, MemMB: 512, MemReqMB: 512})
	starved := ResponseTime(d, Grant{CPUPct: 100, MemMB: 256, MemReqMB: 512})
	if starved <= healthy {
		t.Fatal("memory starvation should inflate RT")
	}
	// Half the memory: factor 1 + 32*0.25 = 9.
	if math.Abs(starved/healthy-9) > 1e-9 {
		t.Fatalf("memory factor = %v, want 9", starved/healthy)
	}
	zero := ResponseTime(d, Grant{CPUPct: 100, MemMB: 0, MemReqMB: 512})
	if zero <= starved {
		t.Fatal("zero memory should be worst")
	}
}

func TestBandwidthPressure(t *testing.T) {
	d := Demand{RPS: 10, CPUTimeReq: 0.01}
	healthy := ResponseTime(d, Grant{CPUPct: 100, BWMbps: 10, BWReqMbp: 10})
	starved := ResponseTime(d, Grant{CPUPct: 100, BWMbps: 5, BWReqMbp: 10})
	if starved <= healthy {
		t.Fatal("bandwidth starvation should inflate RT")
	}
	// Half bandwidth: factor 1 + 7*0.5 = 4.5.
	if math.Abs(starved/healthy-4.5) > 1e-9 {
		t.Fatalf("bw factor = %v, want 4.5", starved/healthy)
	}
}

func TestServiceCapacity(t *testing.T) {
	if got := ServiceCapacityRPS(200, 0.01); math.Abs(got-200) > 1e-12 {
		t.Fatalf("ServiceCapacityRPS = %v", got)
	}
	if !math.IsInf(ServiceCapacityRPS(100, 0), 1) {
		t.Fatal("zero service time should give infinite capacity")
	}
	if !math.IsInf(ServiceCapacityRPS(0, 0.01), 1) {
		t.Fatal("zero CPU with zero arrivals handled by caller; capacity inf")
	}
}

func TestCPURequiredPct(t *testing.T) {
	d := Demand{RPS: 70, CPUTimeReq: 0.01}
	// 70 rps * 0.01 s = 0.7 cores at rho=1; at rho 0.7 -> 1 core = 100%.
	if got := CPURequiredPct(d, 0.7); math.Abs(got-100) > 1e-9 {
		t.Fatalf("CPURequiredPct = %v", got)
	}
	// Invalid target falls back to 0.7.
	if got := CPURequiredPct(d, 0); math.Abs(got-100) > 1e-9 {
		t.Fatalf("CPURequiredPct default = %v", got)
	}
}

func TestBandwidthNeed(t *testing.T) {
	// 100 rps * (1000+9000) bytes * 8 bits = 8e6 bits/s = 8 Mbps.
	if got := BandwidthNeedMbps(100, 1000, 9000); math.Abs(got-8) > 1e-12 {
		t.Fatalf("BandwidthNeedMbps = %v", got)
	}
}

func TestResponseTimeNonNegativeProperty(t *testing.T) {
	f := func(rps, cpu, mem, memReq float64) bool {
		d := Demand{RPS: math.Mod(math.Abs(rps), 1000), CPUTimeReq: 0.01}
		g := Grant{
			CPUPct:   math.Mod(math.Abs(cpu), 400),
			MemMB:    math.Mod(math.Abs(mem), 2048),
			MemReqMB: math.Mod(math.Abs(memReq), 2048),
		}
		rt := ResponseTime(d, g)
		return rt >= 0 && rt <= MaxRT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
