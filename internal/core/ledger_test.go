package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

var (
	bundleOnce sync.Once
	bundleVal  *predict.Bundle
	bundleErr  error
)

// testBundle trains one small prediction bundle for the bf-ml runs.
func testBundle(t *testing.T) *predict.Bundle {
	t.Helper()
	bundleOnce.Do(func() {
		opts := predict.DefaultHarvestOpts(11)
		opts.Ticks = 700
		h, err := predict.Collect(opts)
		if err != nil {
			bundleErr = err
			return
		}
		bundleVal, bundleErr = predict.Train(h, predict.DefaultTrainConfig(12))
	})
	if bundleErr != nil {
		t.Fatal(bundleErr)
	}
	return bundleVal
}

// TestLedgerIdentitiesAllPresets steps every churn and fault preset for a
// simulated day under bf-ob and bf-ml (shedding on) and checks the
// homeless-VM ledger after each Step against the World's slots: the
// pending counts equal the live, unhosted slots holding a record of each
// cause, downtime grew by the evicted count, and the reserved sums equal
// a recomputation from the slots' records in list order.
func TestLedgerIdentitiesAllPresets(t *testing.T) {
	ticks := 1440
	if testing.Short() {
		ticks = 240
	}
	var admitted, evicted int
	for _, name := range scenario.Names() {
		spec := scenario.MustPreset(name, 42)
		if spec.Churn == nil && spec.Faults == nil {
			continue
		}
		for _, polName := range []string{"bf-ob", "bf-ml"} {
			t.Run(name+"/"+polName, func(t *testing.T) {
				sc, err := scenario.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				pol, err := sweep.PolicyByName(polName)
				if err != nil {
					t.Fatal(err)
				}
				var bundle *predict.Bundle
				if pol.NeedsBundle {
					bundle = testBundle(t)
				}
				run, err := sweep.NewManagedRun(sc, pol, bundle, sweep.RunOpts{
					Degraded: &core.DegradedPolicy{ShedAfterTicks: 30},
				})
				if err != nil {
					t.Fatal(err)
				}
				for tick := 0; tick < ticks; tick++ {
					down := 0
					if run.Faults != nil {
						down = run.Faults.Stats().DowntimeTicks
					}
					if _, err := run.Manager.Step(); err != nil {
						t.Fatal(err)
					}
					checkLedger(t, tick, sc.World, run.Manager)
					if run.Faults != nil {
						st := run.Faults.Stats()
						if got := st.DowntimeTicks - down; got != run.Manager.PendingRehomes() {
							t.Fatalf("tick %d: downtime grew by %d, %d evicted VMs homeless", tick, got, run.Manager.PendingRehomes())
						}
					}
				}
				if run.Lifecycle != nil {
					admitted += run.Lifecycle.Stats().Admitted
				}
				if run.Faults != nil {
					evicted += run.Faults.Stats().Interruptions
				}
			})
		}
	}
	if admitted == 0 || evicted == 0 {
		t.Fatalf("the presets admitted %d and evicted %d VMs, want both", admitted, evicted)
	}
}

// checkLedger recomputes the ledger from the World's slots and compares
// it with what the manager reports.
func checkLedger(t *testing.T, tick int, w *sim.World, m *core.Manager) {
	t.Helper()
	var n [3]int
	for i := 0; i < w.NumVMs(); i++ {
		rec, ok := w.HomelessAt(i)
		if !ok {
			continue
		}
		if !w.ActiveVM(i) || w.HostIndexOf(i) >= 0 || int(rec.Slot) != i || !rec.Open {
			t.Fatalf("tick %d: slot %d holds record %+v but is live %v on host %d", tick, i, rec, w.ActiveVM(i), w.HostIndexOf(i))
		}
		n[rec.Cause]++
	}
	if m.PendingAdmits() != n[sim.Admitted] || m.PendingRehomes() != n[sim.Evicted] {
		t.Fatalf("tick %d: pending admits %d / rehomes %d, slots hold %d / %d",
			tick, m.PendingAdmits(), m.PendingRehomes(), n[sim.Admitted], n[sim.Evicted])
	}
	var admitted, evicted model.Resources
	listed := 0
	for _, h := range w.Homeless() {
		rec, ok := w.HomelessAt(int(h.Slot))
		if !h.Open {
			if ok && rec == h {
				t.Fatalf("tick %d: closed record %+v is still its slot's", tick, h)
			}
			continue
		}
		if !ok || rec != h {
			t.Fatalf("tick %d: listed record %+v, slot holds %+v (%v)", tick, h, rec, ok)
		}
		listed++
		if h.Cause == sim.Admitted {
			admitted = admitted.Add(rec.Req)
		} else {
			evicted = evicted.Add(rec.Req)
		}
	}
	if listed != n[sim.Admitted]+n[sim.Evicted] {
		t.Fatalf("tick %d: %d open records listed, %d slots hold one", tick, listed, n[sim.Admitted]+n[sim.Evicted])
	}
	if a, e := m.Reserved(); a != admitted || e != evicted {
		t.Fatalf("tick %d: reserved %+v + %+v, slots give %+v + %+v", tick, a, e, admitted, evicted)
	}
}
