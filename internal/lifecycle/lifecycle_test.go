package lifecycle

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

func wavesSpec() ProcessSpec {
	return ProcessSpec{
		Kind: Waves, WaveEvery: 60, WaveSize: 4,
		MeanLifetimeTicks: 50, MinLifetimeTicks: 10,
		HorizonTicks: 300,
	}
}

// TestGenerateDeterministic pins the script contract: same (seed, spec)
// means an identical script; a different seed perturbs it.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(7, wavesSpec(), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7, wavesSpec(), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different scripts")
	}
	c, err := Generate(8, wavesSpec(), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical scripts")
	}
}

// TestGenerateShapes checks each process kind produces the advertised
// arrival pattern with unique, sequential IDs above the static range.
func TestGenerateShapes(t *testing.T) {
	t.Run("waves", func(t *testing.T) {
		s, err := Generate(1, wavesSpec(), 10, 4)
		if err != nil {
			t.Fatal(err)
		}
		// 300-tick horizon, waves at 60/120/180/240 of 4 VMs each.
		if len(s.Arrivals) != 16 {
			t.Fatalf("waves produced %d arrivals, want 16", len(s.Arrivals))
		}
		for i, a := range s.Arrivals {
			if a.ArriveTick%60 != 0 || a.ArriveTick == 0 {
				t.Fatalf("arrival %d at off-wave tick %d", i, a.ArriveTick)
			}
			if a.LifetimeTicks < 10 {
				t.Fatalf("arrival %d lifetime %d under the floor", i, a.LifetimeTicks)
			}
			if a.Spec.ID != model.VMID(10+i) {
				t.Fatalf("arrival %d has ID %v, want %v", i, a.Spec.ID, model.VMID(10+i))
			}
			if a.Spec.HomeDC < 0 || a.Spec.HomeDC >= 4 {
				t.Fatalf("arrival %d homed outside the topology: %v", i, a.Spec.HomeDC)
			}
			if a.Offered.RPS <= 0 {
				t.Fatalf("arrival %d offers no load", i)
			}
		}
	})
	t.Run("poisson", func(t *testing.T) {
		s, err := Generate(1, ProcessSpec{
			Kind: Poisson, RatePerHour: 10, HorizonTicks: model.TicksPerDay,
		}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		// ~240 expected over the day; a factor-2 band is generous enough
		// to be draw-stable and still catch rate bugs.
		if n := len(s.Arrivals); n < 120 || n > 480 {
			t.Fatalf("poisson produced %d arrivals for an expected 240", n)
		}
		for _, a := range s.Arrivals {
			if a.LifetimeTicks != 0 {
				t.Fatal("zero MeanLifetimeTicks must mean immortal arrivals")
			}
		}
	})
	t.Run("diurnal", func(t *testing.T) {
		s, err := Generate(1, ProcessSpec{
			Kind: Diurnal, RatePerHour: 12, HorizonTicks: model.TicksPerDay,
		}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		day, night := 0, 0
		for _, a := range s.Arrivals {
			h := a.ArriveTick / model.TicksPerHour
			if h >= 12 && h < 18 {
				day++
			}
			if h < 6 {
				night++
			}
		}
		if day <= night {
			t.Fatalf("diurnal arrivals flat: %d afternoon vs %d night", day, night)
		}
	})
	t.Run("errors", func(t *testing.T) {
		for _, bad := range []ProcessSpec{
			{Kind: "bogus"},
			{Kind: Poisson},
			{Kind: Waves, WaveEvery: 10},
		} {
			if _, err := Generate(1, bad, 0, 2); err == nil {
				t.Fatalf("spec %+v accepted", bad)
			}
		}
	})
}

// TestSlotBound pins the padded-interval concurrency bound.
func TestSlotBound(t *testing.T) {
	s := &Script{Arrivals: []Arrival{
		{ArriveTick: 0, LifetimeTicks: 10},
		{ArriveTick: 5, LifetimeTicks: 10},
		{ArriveTick: 30, LifetimeTicks: 10},
	}}
	if got := s.SlotBound(0); got != 2 {
		t.Fatalf("unpadded bound %d, want 2", got)
	}
	// A 20-tick deferral pad stretches the first two intervals over the
	// third arrival.
	if got := s.SlotBound(20); got != 3 {
		t.Fatalf("padded bound %d, want 3", got)
	}
	immortal := &Script{Arrivals: []Arrival{
		{ArriveTick: 0}, {ArriveTick: 100}, {ArriveTick: 200},
	}}
	if got := immortal.SlotBound(0); got != 3 {
		t.Fatalf("immortal bound %d, want 3", got)
	}
}

// TestRunnerFlow drives the event queue by hand through offers,
// deferrals, departures and placement accounting.
func TestRunnerFlow(t *testing.T) {
	s := &Script{Arrivals: []Arrival{
		{Spec: model.VMSpec{ID: 10}, ArriveTick: 5, LifetimeTicks: 20},
		{Spec: model.VMSpec{ID: 11}, ArriveTick: 5, LifetimeTicks: 40},
		{Spec: model.VMSpec{ID: 12}, ArriveTick: 8},
	}}
	r := NewRunner(s)
	if got := r.Due(4); len(got) != 0 {
		t.Fatalf("offers before any arrival: %d", len(got))
	}
	due := r.Due(5)
	if len(due) != 2 {
		t.Fatalf("due at 5: %d offers, want 2", len(due))
	}
	// Admit the first, defer the second.
	r.Resolve(5, due[0], Admit, sim.VMHandle{Slot: 3, Gen: 2})
	r.Resolve(5, due[1], Defer, sim.VMHandle{})
	if r.PendingDeferred() != 1 {
		t.Fatalf("deferred queue %d, want 1", r.PendingDeferred())
	}
	// Next tick the deferred offer returns first; admit it now.
	due = r.Due(6)
	if len(due) != 1 || due[0].Arrival.Spec.ID != 11 || due[0].Deferrals != 1 {
		t.Fatalf("deferred offer not re-presented: %+v", due)
	}
	r.Resolve(6, due[0], Admit, sim.VMHandle{Slot: 4, Gen: 1})
	// Third arrival: reject.
	due = r.Due(8)
	if len(due) != 1 || due[0].Arrival.Spec.ID != 12 {
		t.Fatalf("arrival 12 not offered: %+v", due)
	}
	r.Resolve(8, due[0], Reject, sim.VMHandle{})

	// VM 10 reaches a host at the tick-10 round, 5 ticks after its
	// admission; VM 11 never does.
	r.RecordPlaced(10 - 5)
	// Departures: VM 10 admitted at 5 + 20 = 25; VM 11 at 6 + 40 = 46.
	if deps := r.DeparturesDue(24); len(deps) != 0 {
		t.Fatalf("early departures: %+v", deps)
	}
	deps := r.DeparturesDue(46)
	if len(deps) != 2 || deps[0].ID != 10 || deps[1].ID != 11 {
		t.Fatalf("departures out of order: %+v", deps)
	}
	if deps[0].Handle != (sim.VMHandle{Slot: 3, Gen: 2}) {
		t.Fatalf("departure lost its handle: %+v", deps[0])
	}

	st := r.Stats()
	want := Stats{
		Offered: 3, Admitted: 2, Rejected: 1, Deferrals: 1, Departed: 2,
		Placed: 1, PlacementTicks: 5,
	}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if st.AdmissionRate() != 2.0/3.0 {
		t.Fatalf("admission rate %v", st.AdmissionRate())
	}
	if st.MeanPlacementTicks() != 5 {
		t.Fatalf("mean placement ticks %v", st.MeanPlacementTicks())
	}
}

// TestRunnerChurnZeroAlloc pins Due and DeparturesDue at 0 allocs per
// tick on a scripted churn runner with metrics attached: offers come
// from the runner's per-arrival slab and departures are sorted in a
// reused scratch. NewRunner sizes every queue from the script, so the
// Resolve calls between them stay inside the measurement.
func TestRunnerChurnZeroAlloc(t *testing.T) {
	s, err := Generate(3, ProcessSpec{
		Kind: Poisson, RatePerHour: 180, MeanLifetimeTicks: 20,
		MinLifetimeTicks: 2, HorizonTicks: 400,
	}, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(s)
	r.SetMetrics(NewMetrics(obs.NewRegistry()))
	tick, departed := 0, 0
	allocs := testing.AllocsPerRun(400, func() {
		for _, o := range r.Due(tick) {
			r.Resolve(tick, o, Admit, sim.VMHandle{})
		}
		departed += len(r.DeparturesDue(tick))
		tick++
	})
	if allocs != 0 {
		t.Errorf("Due + DeparturesDue allocate %v times per tick, want 0", allocs)
	}
	if st := r.Stats(); st.Offered < 400 || departed < 300 {
		t.Fatalf("runner offered %d and retired %d VMs, want a churning script", st.Offered, departed)
	}
}
