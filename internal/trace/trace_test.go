package trace

import (
	"math"
	"testing"

	"repro/internal/model"
)

func vmSpec(id int, home int) model.VMSpec {
	return model.VMSpec{
		ID: model.VMID(id), Name: "svc", ImageSizeGB: 4,
		BaseMemMB: 256, MaxMemMB: 1024,
		Terms: model.DefaultSLATerms, PriceEURh: 0.17,
		HomeDC: model.DCID(home),
	}
}

func baseConfig() Config {
	return Config{
		Seed:      1,
		Sources:   4,
		VMs:       []model.VMSpec{vmSpec(0, 0), vmSpec(1, 1)},
		TZOffsetH: PaperTZOffsets(),
		NoiseSD:   0.1,
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	bad := baseConfig()
	bad.Sources = 0
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("accepted zero sources")
	}
	bad = baseConfig()
	bad.VMs = nil
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("accepted zero VMs")
	}
	bad = baseConfig()
	bad.TZOffsetH = []float64{1}
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("accepted mismatched TZ offsets")
	}
	bad = baseConfig()
	bad.HomeBias = 2
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("accepted HomeBias > 1")
	}
}

func TestLoadsDeterministic(t *testing.T) {
	g1, err := NewGenerator(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(baseConfig())
	for _, tick := range []int{0, 17, 500, 1439} {
		a := g1.Loads(tick)
		b := g2.Loads(tick)
		for vm, lva := range a {
			lvb := b[vm]
			for i := range lva {
				if lva[i] != lvb[i] {
					t.Fatalf("tick %d vm %v src %d differs", tick, vm, i)
				}
			}
		}
		// Re-query must reproduce too (order independence).
		c := g1.Loads(tick)
		for vm := range a {
			for i := range a[vm] {
				if a[vm][i] != c[vm][i] {
					t.Fatal("re-query diverged")
				}
			}
		}
	}
}

func TestLoadsNonNegativeAndShaped(t *testing.T) {
	g, err := NewGenerator(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < model.TicksPerDay; tick += 30 {
		for vm, lv := range g.Loads(tick) {
			if len(lv) != 4 {
				t.Fatalf("vm %v has %d sources", vm, len(lv))
			}
			for i, l := range lv {
				if l.RPS < 0 || l.BytesInReq < 0 || l.BytesOutRq < 0 || l.CPUTimeReq < 0 {
					t.Fatalf("negative load at tick %d vm %v src %d: %+v", tick, vm, i, l)
				}
			}
		}
	}
}

func TestDiurnalPeakAndTrough(t *testing.T) {
	peak := diurnal(15, 0.15)
	trough := diurnal(3, 0.15)
	if math.Abs(peak-1) > 1e-9 {
		t.Fatalf("peak = %v", peak)
	}
	if math.Abs(trough-0.15) > 1e-9 {
		t.Fatalf("trough = %v", trough)
	}
	if diurnal(10, 0.15) <= trough || diurnal(10, 0.15) >= peak {
		t.Fatal("mid-morning should sit between trough and peak")
	}
}

func TestTimezonePhaseShift(t *testing.T) {
	// With home bias ~1/n, each source's load peaks during its own local
	// afternoon. Compare Brisbane (+10) vs Boston (-5) for one VM.
	cfg := RotatingConfig(7, vmSpec(0, 0), 4, PaperTZOffsets())
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 15:00 local in Brisbane is 05:00 UTC; in Boston it is 20:00 UTC.
	avgAt := func(utcHour float64, src int) float64 {
		sum := 0.0
		n := 0
		for d := 0; d < 3; d++ {
			tick := int(utcHour*float64(model.TicksPerHour)) + d*model.TicksPerDay
			lv := g.LoadsFor(0, tick)
			sum += lv[src].RPS
			n++
		}
		return sum / float64(n)
	}
	brsAtBrsPeak := avgAt(5, 0)
	brsAtBstPeak := avgAt(20, 0)
	if brsAtBrsPeak <= brsAtBstPeak {
		t.Fatalf("Brisbane load should peak at its local afternoon: %v vs %v",
			brsAtBrsPeak, brsAtBstPeak)
	}
	bstAtBstPeak := avgAt(20, 3)
	bstAtBrsPeak := avgAt(5, 3)
	if bstAtBstPeak <= bstAtBrsPeak {
		t.Fatalf("Boston load should peak at its local afternoon: %v vs %v",
			bstAtBstPeak, bstAtBrsPeak)
	}
}

func TestHomeBiasConcentratesLoad(t *testing.T) {
	cfg := baseConfig()
	cfg.HomeBias = 0.9
	cfg.NoiseSD = 0
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lv := g.LoadsFor(0, 12*model.TicksPerHour)
	home := lv[0].RPS
	for i := 1; i < 4; i++ {
		if lv[i].RPS >= home {
			t.Fatalf("non-home source %d (%v rps) >= home (%v rps)", i, lv[i].RPS, home)
		}
	}
}

func TestFlashCrowdInjection(t *testing.T) {
	cfg := baseConfig()
	cfg.NoiseSD = 0
	cfg.Crowds = []FlashCrowd{{StartTick: 70, EndTick: 90, Magnitude: 8, Source: 2, VM: 0}}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quiet := g.LoadsFor(0, 60)[2].RPS
	crowd := g.LoadsFor(0, 80)[2].RPS // mid-crowd, full envelope
	after := g.LoadsFor(0, 95)[2].RPS
	if crowd < quiet*3 {
		t.Fatalf("flash crowd too weak: quiet %v vs crowd %v", quiet, crowd)
	}
	if after > quiet*1.5 {
		t.Fatalf("crowd did not subside: %v vs %v", after, quiet)
	}
	// Other VM unaffected.
	otherQuiet := g.LoadsFor(1, 60)[2].RPS
	otherCrowd := g.LoadsFor(1, 80)[2].RPS
	if otherCrowd > otherQuiet*1.5 {
		t.Fatal("crowd leaked to wrong VM")
	}
}

func TestScalePerStream(t *testing.T) {
	cfg := baseConfig()
	cfg.NoiseSD = 0
	cfg.Scale = map[model.VMID][]float64{0: {2, 1, 1, 1}}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgRef := baseConfig()
	cfgRef.NoiseSD = 0
	ref, _ := NewGenerator(cfgRef)
	tick := 12 * model.TicksPerHour
	got := g.LoadsFor(0, tick)[0].RPS
	want := 2 * ref.LoadsFor(0, tick)[0].RPS
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("scaled rps = %v, want %v", got, want)
	}
}

func TestClassAssignmentDefaultsAndOverride(t *testing.T) {
	cfg := baseConfig()
	cfg.ClassOf = map[model.VMID]ServiceClass{0: DynamicWeb}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Class(0).Name != DynamicWeb.Name {
		t.Fatal("explicit class ignored")
	}
	if got, want := g.Class(1), ClassByIndex(1); got != want {
		t.Fatalf("default class of vm 1 = %q, want %q", got.Name, want.Name)
	}
	if got := g.Class(99); got != (ServiceClass{}) {
		t.Fatalf("unknown VM class = %q, want the zero class", got.Name)
	}
	// Defaults live in the generator, not in the caller's map.
	if len(cfg.ClassOf) != 1 || cfg.ClassOf[0] != DynamicWeb {
		t.Fatalf("NewGenerator modified the caller's ClassOf: %v", cfg.ClassOf)
	}
}

func TestClassByIndexCycles(t *testing.T) {
	if ClassByIndex(0).Name != ClassByIndex(3).Name {
		t.Fatal("ClassByIndex should cycle with period 3")
	}
	if ClassByIndex(-1).Name == "" {
		t.Fatal("negative index should still resolve")
	}
}

func TestLoadsForUnknownVM(t *testing.T) {
	g, err := NewGenerator(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	lv := g.LoadsFor(99, 0)
	if len(lv) != 4 {
		t.Fatalf("unknown VM load vector length %d", len(lv))
	}
	if !lv.Total().IsZero() {
		t.Fatal("unknown VM should have zero load")
	}
}
