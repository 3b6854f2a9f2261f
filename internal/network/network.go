// Package network models the multi-DC interconnect: client-to-DC and
// DC-to-DC latencies, inter-DC bandwidth, and the duration of VM
// migrations (freeze + image transfer + restore).
//
// Latencies and locations reproduce Table II of the paper, which the
// authors derived from the published Verizon intercontinental round-trip
// figures, with a fixed 10 Gbps inter-DC line.
package network

import (
	"fmt"

	"repro/internal/model"
)

// Topology describes the geography of the multi-DC system.
type Topology struct {
	names    []string
	prices   []float64   // EUR per kWh at each DC (static base)
	latDCDC  [][]float64 // seconds, symmetric, zero diagonal
	schedule PriceSchedule
}

// lineMbps is the inter-DC line capacity: 10 Gbps, the paper's assumption.
const lineMbps = 10_000

// New builds a topology from DC names, electricity prices (EUR/kWh) and a
// symmetric DC-to-DC latency matrix in seconds.
func New(names []string, pricesEURkWh []float64, latSeconds [][]float64) (*Topology, error) {
	n := len(names)
	if n == 0 {
		return nil, fmt.Errorf("network: need at least one DC")
	}
	if len(pricesEURkWh) != n || len(latSeconds) != n {
		return nil, fmt.Errorf("network: names/prices/latencies sizes differ (%d/%d/%d)",
			n, len(pricesEURkWh), len(latSeconds))
	}
	for i, row := range latSeconds {
		if len(row) != n {
			return nil, fmt.Errorf("network: latency row %d has %d entries, want %d", i, len(row), n)
		}
		if row[i] != 0 {
			return nil, fmt.Errorf("network: latency diagonal must be zero at %d", i)
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("network: negative latency [%d][%d]", i, j)
			}
			if latSeconds[j][i] != v {
				return nil, fmt.Errorf("network: latency matrix not symmetric at [%d][%d]", i, j)
			}
		}
	}
	t := &Topology{
		names:  append([]string(nil), names...),
		prices: append([]float64(nil), pricesEURkWh...),
	}
	t.latDCDC = make([][]float64, n)
	for i := range latSeconds {
		t.latDCDC[i] = append([]float64(nil), latSeconds[i]...)
	}
	return t, nil
}

// PaperTopology returns the exact four-DC system of Table II:
// Brisbane, Bangaluru, Barcelona, Boston with the printed electricity
// prices (EUR/kWh) and inter-DC latencies (milliseconds).
func PaperTopology() *Topology {
	ms := func(v float64) float64 { return v / 1000 }
	t, err := New(
		[]string{"Brisbane", "Bangaluru", "Barcelona", "Boston"},
		[]float64{0.1314, 0.1218, 0.1513, 0.1120},
		[][]float64{
			{0, ms(265), ms(390), ms(255)},
			{ms(265), 0, ms(250), ms(380)},
			{ms(390), ms(250), 0, ms(90)},
			{ms(255), ms(380), ms(90), 0},
		},
	)
	if err != nil {
		panic("network: paper topology invalid: " + err.Error())
	}
	return t
}

// GlobalTopology returns the production-scale six-DC system: the four
// Table II sites plus Frankfurt and Singapore, with electricity prices in
// the same EUR/kWh band and one-way latencies (milliseconds) consistent
// with published intercontinental round-trip figures. The first four DCs
// are bit-identical to PaperTopology, so sub-fleets drawn from the prefix
// behave exactly like the paper's system.
func GlobalTopology() *Topology {
	ms := func(v float64) float64 { return v / 1000 }
	t, err := New(
		[]string{"Brisbane", "Bangaluru", "Barcelona", "Boston", "Frankfurt", "Singapore"},
		[]float64{0.1314, 0.1218, 0.1513, 0.1120, 0.1482, 0.1169},
		[][]float64{
			{0, ms(265), ms(390), ms(255), ms(300), ms(95)},
			{ms(265), 0, ms(250), ms(380), ms(220), ms(70)},
			{ms(390), ms(250), 0, ms(90), ms(30), ms(230)},
			{ms(255), ms(380), ms(90), 0, ms(100), ms(250)},
			{ms(300), ms(220), ms(30), ms(100), 0, ms(200)},
			{ms(95), ms(70), ms(230), ms(250), ms(200), 0},
		},
	)
	if err != nil {
		panic("network: global topology invalid: " + err.Error())
	}
	return t
}

// NumDCs returns the number of datacenters.
func (t *Topology) NumDCs() int { return len(t.names) }

// Name returns the human name of a DC.
func (t *Topology) Name(dc model.DCID) string { return t.names[dc] }

// EnergyPrice returns the electricity price at a DC in EUR/kWh.
func (t *Topology) EnergyPrice(dc model.DCID) float64 { return t.prices[dc] }

// LatencyClientDC returns the transport latency experienced by clients of
// location loc when their VM is hosted at DC dc. Client requests enter the
// system through their local DC's ISP (the paper's gateway model), so the
// added latency is exactly the inter-DC hop; local hosting adds none.
func (t *Topology) LatencyClientDC(loc model.LocationID, dc model.DCID) float64 {
	return t.latDCDC[loc][dc]
}

// FreezeRestoreOverhead is the fixed VM freeze+restore time in seconds added
// to every migration on top of the image transfer.
const FreezeRestoreOverhead = 5.0

// MigrationDuration returns the wall-clock seconds needed to move a VM
// image of the given size between two DCs (or within one DC, where only
// the local fabric and freeze/restore cost apply).
func (t *Topology) MigrationDuration(imageGB float64, from, to model.DCID) float64 {
	if imageGB < 0 {
		imageGB = 0
	}
	bits := imageGB * 8 * 1000 // gigabits -> megabits
	transfer := bits / lineMbps
	rtt := 2 * t.latDCDC[from][to]
	return FreezeRestoreOverhead + transfer + rtt
}

// MeanLatencyFrom returns the request-weighted mean transport latency a VM
// would see if hosted at dc under the given load vector: the quantity
// RTtransport of constraint (6.2) aggregated over sources.
func (t *Topology) MeanLatencyFrom(dc model.DCID, loads model.LoadVector) float64 {
	var weighted, total float64
	for loc, l := range loads {
		if l.RPS <= 0 {
			continue
		}
		weighted += l.RPS * t.LatencyClientDC(model.LocationID(loc), dc)
		total += l.RPS
	}
	if total <= 0 {
		return 0
	}
	return weighted / total
}
