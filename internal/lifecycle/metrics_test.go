package lifecycle

import (
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestRunnersRecordMetrics drives every counted churn and fault event
// through runners sharing one attached family: each counter must equal
// its Stats/FaultStats field, and a detached runner must record nothing
// more.
func TestRunnersRecordMetrics(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	r := NewRunner(&Script{Arrivals: []Arrival{
		{Spec: model.VMSpec{ID: 1}, LifetimeTicks: 2},
		{Spec: model.VMSpec{ID: 2}},
		{Spec: model.VMSpec{ID: 3}},
	}})
	fr := NewFaultRunner(&FaultScript{Events: []FaultEvent{
		{Kind: FaultCrash}, {Kind: FaultRepair}, {Kind: FaultDrainStart},
		{Kind: FaultTakedown}, {Kind: FaultOutageStart},
	}})
	r.SetMetrics(m)
	fr.SetMetrics(m)

	due := r.Due(0)
	r.Resolve(0, due[0], Admit, sim.VMHandle{})
	r.Resolve(0, due[1], Defer, sim.VMHandle{})
	r.Resolve(0, due[2], Reject, sim.VMHandle{})
	r.RecordPlaced(1)
	r.DeparturesDue(2)

	fr.Due(0)
	fr.RecordEvictions(2, false)
	fr.RecordEvictions(1, true)
	fr.ObserveTick(3, true, 3)
	fr.RecordRehome(1)
	fr.ObserveTick(3, false, 2)
	fr.RecordShed()

	check := func() {
		t.Helper()
		s, f := r.Stats(), fr.Stats()
		for _, c := range []struct {
			name string
			ctr  *obs.Counter
			want int
		}{
			{"offered", m.Offered, s.Offered},
			{"admitted", m.Admitted, s.Admitted},
			{"rejected", m.Rejected, s.Rejected},
			{"deferrals", m.Deferrals, s.Deferrals},
			{"departed", m.Departed, s.Departed},
			{"placed", m.Placed, s.Placed},
			{"crashes", m.Crashes, f.Crashes},
			{"repairs", m.Repairs, f.Repairs},
			{"drains started", m.DrainsStarted, f.DrainsStarted},
			{"takedowns", m.Takedowns, f.Takedowns},
			{"outage starts", m.OutageStarts, f.OutageStarts},
			{"interruptions", m.Interruptions, f.Interruptions},
			{"forced evictions", m.ForcedEvictions, f.ForcedEvictions},
			{"rehomed", m.Rehomed, f.Rehomed},
			{"shed", m.Shed, f.Shed},
			{"downtime ticks", m.DowntimeTicks, f.DowntimeTicks},
			{"degraded ticks", m.DegradedTicks, f.DegradedTicks},
		} {
			if c.want == 0 {
				t.Errorf("%s: the script never exercised this counter", c.name)
			}
			if got := c.ctr.Value(); got != uint64(c.want) {
				t.Errorf("%s counter = %d, stats say %d", c.name, got, c.want)
			}
		}
	}
	check()

	// Detached runners keep their Stats but leave the family alone.
	before := m.Offered.Value()
	r.SetMetrics(nil)
	fr.SetMetrics(nil)
	r.Push(Arrival{Spec: model.VMSpec{ID: 4}, ArriveTick: 1})
	r.Due(1) // the deferred VM retries (not counted again); VM 4 is offered
	fr.RecordShed()
	if r.Stats().Offered != int(before)+1 || m.Offered.Value() != before {
		t.Fatalf("detached runner: stats offered %d, counter %d (was %d)",
			r.Stats().Offered, m.Offered.Value(), before)
	}
	if m.Shed.Value() != 1 || fr.Stats().Shed != 2 {
		t.Fatalf("detached fault runner: counter shed %d, stats %d", m.Shed.Value(), fr.Stats().Shed)
	}
}
