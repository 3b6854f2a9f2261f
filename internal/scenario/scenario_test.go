package scenario

import (
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/model"
	"repro/internal/network"
)

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{DCs: 0, PMsPerDC: 1, VMs: 1},
		{DCs: 7, PMsPerDC: 1, VMs: 1},
		{DCs: 2, PMsPerDC: 1, VMs: 0},
		{DCs: 2, PMsPerDC: 0, VMs: 1},
		{DCs: 2, PMsPerDC: 1, VMs: 2, Rotating: true},
		{DCs: 2, PMsPerDC: 1, VMs: 1, Rotating: true, NoiseSD: 0.2},
		{DCs: 2, PMsPerDC: 1, VMs: 1, Rotating: true, FlashCrowd: true},
		{DCs: 2, PMsPerDC: 1, VMs: 1, Pricing: Pricing{Kind: "nonsense"}},
		{DCs: 2, PMsPerDC: 1, VMs: 1, Pricing: Pricing{Kind: "solar", Base: []float64{1}}},
		{DCs: 2, VMs: 1, PMClasses: []PMClass{{PerDC: 0, Capacity: AtomCapacity}}},
	}
	for i, spec := range bad {
		if _, err := Build(spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

func TestEveryPresetBuildsAndSteps(t *testing.T) {
	for _, name := range Names() {
		sc, err := Build(MustPreset(name, 42))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := sc.World.Step()
		if st.Tick != 0 {
			t.Fatalf("%s: first tick = %d", name, st.Tick)
		}
		if st.AvgSLA < 0 || st.AvgSLA > 1 {
			t.Fatalf("%s: AvgSLA = %v", name, st.AvgSLA)
		}
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("no-such-scenario", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestHeavyPresetsResolvableButNotEnumerated pins the heavy-preset
// contract: xlarge resolves by name (so mdcsim/sweep can address it
// explicitly) while Names() — the "run everything" list — excludes it.
func TestHeavyPresetsResolvableButNotEnumerated(t *testing.T) {
	for _, heavy := range []string{XLargeFleet, HyperscaleFleet} {
		if _, err := Preset(heavy, 1); err != nil {
			t.Fatalf("heavy preset not resolvable: %v", err)
		}
		for _, name := range Names() {
			if name == heavy {
				t.Fatalf("heavy preset %q leaked into Names()", heavy)
			}
		}
	}
	if hn := HeavyNames(); len(hn) != 2 || hn[0] != HyperscaleFleet || hn[1] != XLargeFleet {
		t.Fatalf("HeavyNames = %v", hn)
	}
}

// TestXLargeBuildsOnGlobalTopology proves the six-DC production fleet
// assembles: 402 hosts across six DCs, 1000 VMs, six client locations,
// and a steppable world.
func TestXLargeBuildsOnGlobalTopology(t *testing.T) {
	sc, err := Build(MustPreset(XLargeFleet, 42))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Topology.NumDCs(); got != 6 {
		t.Fatalf("topology has %d DCs, want 6", got)
	}
	if got := len(sc.Inventory.PMs()); got != 402 {
		t.Fatalf("fleet has %d PMs, want 402", got)
	}
	if got := len(sc.VMs); got != 1000 {
		t.Fatalf("fleet has %d VMs, want 1000", got)
	}
	if got := sc.Generator.Sources(); got != 6 {
		t.Fatalf("generator has %d sources, want 6", got)
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	st := sc.World.Step()
	if st.AvgSLA < 0 || st.AvgSLA > 1 {
		t.Fatalf("AvgSLA = %v", st.AvgSLA)
	}
}

// TestGlobalTopologyExtendsPaperTopology pins the prefix property the
// 4-DC presets rely on: the first four DCs of the global topology are
// bit-identical to the paper's Table II system.
func TestGlobalTopologyExtendsPaperTopology(t *testing.T) {
	paper := network.PaperTopology()
	global := network.GlobalTopology()
	if global.NumDCs() != 6 {
		t.Fatalf("global topology has %d DCs", global.NumDCs())
	}
	for a := 0; a < paper.NumDCs(); a++ {
		if paper.Name(model.DCID(a)) != global.Name(model.DCID(a)) {
			t.Fatalf("DC %d name differs", a)
		}
		if paper.EnergyPrice(model.DCID(a)) != global.EnergyPrice(model.DCID(a)) {
			t.Fatalf("DC %d price differs", a)
		}
		for b := 0; b < paper.NumDCs(); b++ {
			if paper.LatencyClientDC(model.LocationID(a), model.DCID(b)) != global.LatencyClientDC(model.LocationID(a), model.DCID(b)) {
				t.Fatalf("latency [%d][%d] differs", a, b)
			}
		}
	}
}

func TestHeteroFleetShape(t *testing.T) {
	sc, err := Build(MustPreset(HeteroFleet, 7))
	if err != nil {
		t.Fatal(err)
	}
	// 2 DCs x (2 Atom + 1 big) = 6 hosts, with asymmetric capacities.
	pms := sc.Inventory.PMs()
	if len(pms) != 6 {
		t.Fatalf("hetero fleet has %d PMs", len(pms))
	}
	var big, small int
	for _, pm := range pms {
		switch pm.Capacity.CPUPct {
		case AtomCapacity.CPUPct:
			small++
		case 2 * AtomCapacity.CPUPct:
			big++
		default:
			t.Fatalf("unexpected capacity %v", pm.Capacity)
		}
	}
	if small != 4 || big != 2 {
		t.Fatalf("fleet mix = %d small, %d big", small, big)
	}
}

func TestGridSpikePricing(t *testing.T) {
	sc, err := Build(MustPreset(GridSpike, 7))
	if err != nil {
		t.Fatal(err)
	}
	base := sc.Topology.EnergyPrice(0)
	before := sc.Topology.EnergyPriceAt(0, 0)
	during := sc.Topology.EnergyPriceAt(0, 10*60)
	after := sc.Topology.EnergyPriceAt(0, 16*60)
	if before != base || after != base {
		t.Fatalf("price off-spike %v/%v, want base %v", before, after, base)
	}
	if during != 4*base {
		t.Fatalf("price during spike %v, want %v", during, 4*base)
	}
	// Other DCs stay flat through the spike.
	if got := sc.Topology.EnergyPriceAt(1, 10*60); got != sc.Topology.EnergyPrice(1) {
		t.Fatalf("spike leaked to DC 1: %v", got)
	}
}

func TestSolarPricingDips(t *testing.T) {
	sc, err := Build(MustPreset(GreenSolar, 7))
	if err != nil {
		t.Fatal(err)
	}
	base := sc.Spec.Pricing.Base
	// At some tick of the day, each DC must enjoy a deep discount.
	for dc := 0; dc < 4; dc++ {
		min := base[dc]
		for tick := 0; tick < model.TicksPerDay; tick += 10 {
			if p := sc.Topology.EnergyPriceAt(model.DCID(dc), tick); p < min {
				min = p
			}
		}
		if min > base[dc]*0.2 {
			t.Fatalf("DC %d never saw solar discount: min %v of base %v", dc, min, base[dc])
		}
	}
}

func TestHomePlacementAndPileOn(t *testing.T) {
	sc, err := Build(Spec{Name: "t", Seed: 1, DCs: 4, PMsPerDC: 1, VMs: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := sc.HomePlacement()
	for _, vm := range sc.VMs {
		if sc.Inventory.DCOf(p[vm.ID]) != vm.HomeDC {
			t.Fatalf("VM %v placed at DC %v, home %v", vm.ID, sc.Inventory.DCOf(p[vm.ID]), vm.HomeDC)
		}
	}
	pile := sc.PileOn(2)
	for _, vm := range sc.VMs {
		if pile[vm.ID] != 2 {
			t.Fatalf("PileOn missed VM %v", vm.ID)
		}
	}
}

func TestVMScaleOverride(t *testing.T) {
	spec := Spec{
		Name: "scaled", Seed: 3, DCs: 2, PMsPerDC: 1, VMs: 2,
		VMScale: map[model.VMID][]float64{
			0: {4, 4, 4, 4},
			1: {0.1, 0.1, 0.1, 0.1},
		},
	}
	sc, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Same service class would be needed for a strict comparison; instead
	// assert the scaled VM carries far more load than its tiny peer at a
	// busy hour relative to class base rates.
	heavy := sc.Generator.LoadsFor(0, 12*60).Total().RPS / sc.Generator.Class(0).BaseRPS
	light := sc.Generator.LoadsFor(1, 12*60).Total().RPS / sc.Generator.Class(1).BaseRPS
	if heavy <= light*10 {
		t.Fatalf("VMScale ineffective: heavy %v vs light %v", heavy, light)
	}
}

// TestChurnPresetsBuild checks every churn preset produces a script, a
// roster the generator can serve, and engine slot headroom.
func TestChurnPresetsBuild(t *testing.T) {
	for _, name := range []string{ChurnPoisson, ChurnDiurnal, ChurnStorm} {
		sc, err := Build(MustPreset(name, 42))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Script == nil || len(sc.Script.Arrivals) == 0 {
			t.Fatalf("%s: no churn script", name)
		}
		if sc.World.VMSlotCap() <= sc.World.NumVMs() {
			t.Fatalf("%s: no slot headroom (%d of %d)", name, sc.World.NumVMs(), sc.World.VMSlotCap())
		}
		// Arrival IDs continue above the static population, and the
		// generator serves load for them.
		first := sc.Script.Arrivals[0]
		if int(first.Spec.ID) < len(sc.VMs) {
			t.Fatalf("%s: arrival ID %v collides with the static range", name, first.Spec.ID)
		}
		lv := sc.Generator.LoadsFor(first.Spec.ID, first.ArriveTick+1)
		if lv.Total().RPS <= 0 {
			t.Fatalf("%s: generator serves no load for arrival %v", name, first.Spec.ID)
		}
	}
}

// TestChurnSpecValidation rejects churn combined with incompatible knobs.
func TestChurnSpecValidation(t *testing.T) {
	churn := MustPreset(ChurnPoisson, 1).Churn
	bad := []Spec{
		{DCs: 4, PMsPerDC: 1, VMs: 1, Rotating: true, Churn: churn},
		{DCs: 2, PMsPerDC: 1, VMs: 1, Churn: churn,
			VMScale: map[model.VMID][]float64{0: {1, 1}}},
		{DCs: 2, PMsPerDC: 1, VMs: 1, Churn: &lifecycle.ProcessSpec{Kind: "bogus"}},
	}
	for i, spec := range bad {
		if _, err := Build(spec); err == nil {
			t.Errorf("churn spec %d accepted: %+v", i, spec)
		}
	}
}

// TestPresetDeepCopiesChurn pins the preset-isolation contract for the
// churn pointer: mutating a returned spec must not corrupt the table.
func TestPresetDeepCopiesChurn(t *testing.T) {
	a := MustPreset(ChurnStorm, 1)
	a.Churn.WaveSize = 9999
	b := MustPreset(ChurnStorm, 1)
	if b.Churn.WaveSize == 9999 {
		t.Fatal("preset table shares the Churn spec with callers")
	}
}
