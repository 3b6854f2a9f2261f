package lifecycle

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

func testPMs(n int, dcs int) []model.PMSpec {
	pms := make([]model.PMSpec, n)
	for i := range pms {
		pms[i] = model.PMSpec{ID: model.PMID(i), DC: model.DCID(i % dcs)}
	}
	return pms
}

// TestGenerateFaultsDeterministic pins the script contract: identical
// (seed, spec, fleet) means an identical script; a different seed
// perturbs the crash process.
func TestGenerateFaultsDeterministic(t *testing.T) {
	spec := FaultSpec{
		HostMTTFTicks: 200, HostMTTRTicks: 40,
		Outages:      []OutageSpec{{DC: 1, StartTick: 100, DurationTicks: 50}},
		Maintenance:  &MaintenanceSpec{StartTick: 10, EveryTicks: 30, DrainDeadlineTicks: 20, OfflineTicks: 15, MaxHosts: 2},
		HorizonTicks: 600,
	}
	pms := testPMs(8, 4)
	a, err := GenerateFaults(7, spec, pms, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFaults(7, spec, pms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, spec) produced different fault scripts")
	}
	c, err := GenerateFaults(8, spec, pms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault scripts")
	}
	if !sort.SliceIsSorted(a.Events, func(i, j int) bool {
		return a.Events[i].Tick < a.Events[j].Tick
	}) {
		t.Fatal("script events not sorted by tick")
	}
}

// TestGenerateFaultsShapes checks each process produces its advertised
// event pattern.
func TestGenerateFaultsShapes(t *testing.T) {
	t.Run("crash-repair-alternation", func(t *testing.T) {
		s, err := GenerateFaults(3, FaultSpec{
			HostMTTFTicks: 100, HostMTTRTicks: 30, HorizonTicks: 2000,
		}, testPMs(4, 2), 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Events) == 0 {
			t.Fatal("no crash events over 20 MTTFs")
		}
		// Per host: strict crash/repair alternation starting with a crash,
		// repair strictly after its crash.
		byHost := map[model.PMID][]FaultEvent{}
		for _, ev := range s.Events {
			byHost[ev.PM] = append(byHost[ev.PM], ev)
		}
		for pm, evs := range byHost {
			for i, ev := range evs {
				wantKind := FaultCrash
				if i%2 == 1 {
					wantKind = FaultRepair
				}
				if ev.Kind != wantKind {
					t.Fatalf("host %v event %d: kind %v, want %v", pm, i, ev.Kind, wantKind)
				}
				if i > 0 && evs[i].Tick <= evs[i-1].Tick {
					t.Fatalf("host %v: event %d at %d not after %d", pm, i, evs[i].Tick, evs[i-1].Tick)
				}
			}
		}
	})
	t.Run("maintenance-wave", func(t *testing.T) {
		s, err := GenerateFaults(1, FaultSpec{
			Maintenance:  &MaintenanceSpec{StartTick: 50, EveryTicks: 40, DrainDeadlineTicks: 30, OfflineTicks: 20},
			HorizonTicks: 1000,
		}, testPMs(3, 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Events) != 9 {
			t.Fatalf("wave over 3 hosts produced %d events, want 9", len(s.Events))
		}
		for k := 0; k < 3; k++ {
			start := 50 + 40*k
			pm := model.PMID(k)
			want := []FaultEvent{
				{Tick: start, Kind: FaultDrainStart, PM: pm},
				{Tick: start + 30, Kind: FaultTakedown, PM: pm},
				{Tick: start + 50, Kind: FaultRepair, PM: pm},
			}
			var got []FaultEvent
			for _, ev := range s.Events {
				if ev.PM == pm {
					got = append(got, ev)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("host %v wave %v, want %v", pm, got, want)
			}
		}
	})
	t.Run("outage-expansion", func(t *testing.T) {
		s, err := GenerateFaults(1, FaultSpec{
			Outages:      []OutageSpec{{DC: 2, StartTick: 30, DurationTicks: 60}},
			HorizonTicks: 200,
		}, testPMs(6, 3), 3)
		if err != nil {
			t.Fatal(err)
		}
		want := []FaultEvent{
			{Tick: 30, Kind: FaultOutageStart, DC: 2},
			{Tick: 90, Kind: FaultOutageEnd, DC: 2},
		}
		if !reflect.DeepEqual(s.Events, want) {
			t.Fatalf("outage events %v, want %v", s.Events, want)
		}
	})
}

// TestFaultSpecValidation pins the option-listing error messages for the
// new failure fields.
func TestFaultSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec FaultSpec
		want string // substring of the error
	}{
		{"negative-mttf", FaultSpec{HostMTTFTicks: -1, HostMTTRTicks: 10}, "negative host MTTF/MTTR"},
		{"negative-mttr", FaultSpec{HostMTTFTicks: 10, HostMTTRTicks: -2}, "negative host MTTF/MTTR"},
		{"mttf-without-mttr", FaultSpec{HostMTTFTicks: 10}, "both HostMTTFTicks and HostMTTRTicks"},
		{"unknown-dc", FaultSpec{Outages: []OutageSpec{{DC: 7, StartTick: 1, DurationTicks: 1}}}, "unknown DC 7 (have 0..3)"},
		{"negative-outage-start", FaultSpec{Outages: []OutageSpec{{DC: 0, StartTick: -5, DurationTicks: 1}}}, "negative tick"},
		{"zero-outage-duration", FaultSpec{Outages: []OutageSpec{{DC: 0, StartTick: 0}}}, "DurationTicks >= 1"},
		{"drain-deadline-zero", FaultSpec{Maintenance: &MaintenanceSpec{EveryTicks: 10, OfflineTicks: 10}}, "drain deadline must be >= 1"},
		{"every-zero", FaultSpec{Maintenance: &MaintenanceSpec{DrainDeadlineTicks: 10, OfflineTicks: 10}}, "EveryTicks >= 1"},
		{"offline-zero", FaultSpec{Maintenance: &MaintenanceSpec{DrainDeadlineTicks: 10, EveryTicks: 10}}, "OfflineTicks >= 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := GenerateFaults(1, tc.spec, testPMs(4, 4), 4)
			if err == nil {
				t.Fatalf("spec %+v accepted", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The zero spec injects nothing and is valid.
	s, err := GenerateFaults(1, FaultSpec{}, testPMs(2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 0 {
		t.Fatalf("zero spec produced events: %v", s.Events)
	}
}

// TestFaultRunnerFlow drives the runner by hand through eviction, waiting,
// re-homing and shedding as the manager reports them, checking the
// availability arithmetic. Which VMs wait lives in the World's homeless
// records (core's TestHomelessLedgerFlow).
func TestFaultRunnerFlow(t *testing.T) {
	script := &FaultScript{Events: []FaultEvent{
		{Tick: 5, Kind: FaultCrash, PM: 0},
		{Tick: 40, Kind: FaultRepair, PM: 0},
	}}
	r := NewFaultRunner(script)
	if got := r.Due(4); len(got) != 0 {
		t.Fatalf("events before their tick: %v", got)
	}
	due := r.Due(5)
	if len(due) != 1 || due[0].Kind != FaultCrash {
		t.Fatalf("due at 5: %v", due)
	}
	// Two guests evicted by the crash, one more by a forced takedown.
	r.RecordEvictions(2, false)
	r.RecordEvictions(1, true)
	// Ticks 5..9: two VMs homeless among 4 live VMs.
	for tick := 5; tick < 10; tick++ {
		r.ObserveTick(4, false, 2)
	}
	// Tick 10: one re-homed (5 ticks after eviction), one still out.
	r.RecordRehome(5)
	r.ObserveTick(4, true, 1)
	// The other is shed.
	r.RecordShed()
	st := r.Stats()
	if st.Crashes != 1 || st.Interruptions != 3 || st.ForcedEvictions != 1 {
		t.Fatalf("event counters %+v", st)
	}
	if st.Rehomed != 1 || st.RehomeTicksSum != 5 || st.MaxRehomeTicks != 5 || st.Shed != 1 {
		t.Fatalf("re-home counters %+v", st)
	}
	// Downtime: 2 VMs x ticks 5..9 + 1 VM at tick 10 = 11; VM-ticks 6x4.
	if st.DowntimeTicks != 11 || st.VMTicks != 24 || st.DegradedTicks != 1 {
		t.Fatalf("availability counters %+v", st)
	}
	if want := 1 - float64(st.DowntimeTicks)/float64(st.VMTicks); st.Availability() != want {
		t.Fatalf("availability %v, want %v", st.Availability(), want)
	}
	if st.MeanRehomeTicks() != 5 {
		t.Fatalf("mean re-home %v, want 5", st.MeanRehomeTicks())
	}
	r.RecordRehome(3)
	if st := r.Stats(); st.MaxRehomeTicks != 5 || st.RehomeTicksSum != 8 {
		t.Fatalf("a shorter re-home moved the maximum: %+v", st)
	}
	// Nil scripts yield a runner that never fires.
	if got := NewFaultRunner(nil).Due(1000); len(got) != 0 {
		t.Fatalf("nil-script runner fired: %v", got)
	}
}

// TestFaultRunnerQuiescentAllocFree pins the per-tick cost of an enabled
// but idle fault layer: between events Due + ObserveTick allocate
// nothing.
func TestFaultRunnerQuiescentAllocFree(t *testing.T) {
	r := NewFaultRunner(&FaultScript{Events: []FaultEvent{
		{Tick: 1 << 30, Kind: FaultCrash, PM: 0}, // far future: never due
	}})
	tick := 0
	avg := testing.AllocsPerRun(100, func() {
		tick++
		r.Due(tick)
		r.ObserveTick(8, false, 0)
	})
	if avg != 0 {
		t.Fatalf("quiescent fault runner allocates %.1f times per tick, want 0", avg)
	}
}

// TestCancelDeparture pins the eviction/departure interaction: a VM shed
// (retired early) before its departure tick must not resurrect or
// double-count in Stats when the tick comes.
func TestCancelDeparture(t *testing.T) {
	s := &Script{Arrivals: []Arrival{
		{Spec: model.VMSpec{ID: 10}, ArriveTick: 0, LifetimeTicks: 20},
		{Spec: model.VMSpec{ID: 11}, ArriveTick: 0, LifetimeTicks: 20},
	}}
	r := NewRunner(s)
	due := r.Due(0)
	if len(due) != 2 {
		t.Fatalf("due %d, want 2", len(due))
	}
	r.Resolve(0, due[0], Admit, sim.VMHandle{Slot: 1, Gen: 1})
	r.Resolve(0, due[1], Admit, sim.VMHandle{Slot: 2, Gen: 1})

	// VM 10 is evicted by a fault at tick 5, never re-homed, and shed at
	// tick 15 — before its tick-20 departure.
	if !r.CancelDeparture(10) {
		t.Fatal("CancelDeparture missed the scheduled departure")
	}
	if r.CancelDeparture(10) {
		t.Fatal("second CancelDeparture found a departure to cancel")
	}

	deps := r.DeparturesDue(30)
	if len(deps) != 1 || deps[0].ID != 11 {
		t.Fatalf("departures %+v, want only VM 11", deps)
	}
	st := r.Stats()
	if st.Departed != 1 {
		t.Fatalf("Departed %d, want 1 (shed VM must not count)", st.Departed)
	}
	if st.Admitted != 2 {
		t.Fatalf("Admitted %d, want 2 (cancel must not touch admission)", st.Admitted)
	}
}
