package predict

import (
	"fmt"
	"slices"

	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Harvest holds the seven training datasets gathered from monitored runs.
type Harvest struct {
	VMCPU *ml.Dataset
	VMMem *ml.Dataset
	VMIn  *ml.Dataset
	VMOut *ml.Dataset
	PMCPU *ml.Dataset
	VMRT  *ml.Dataset
	VMSLA *ml.Dataset

	// RecordTick's scratch: the feature row it builds (Dataset.Add copies
	// it) and the per-PM guest aggregates.
	row   []float64
	perPM []pmAgg
}

// pmAgg sums one host's guests over a recorded tick.
type pmAgg struct {
	guests int
	sumCPU float64
	sumRPS float64
}

// NewHarvest allocates empty datasets with the canonical feature names.
func NewHarvest() *Harvest {
	return &Harvest{
		VMCPU: ml.NewDataset(VMCPUFeatureNames()),
		VMMem: ml.NewDataset(VMMemFeatureNames()),
		VMIn:  ml.NewDataset(VMNetFeatureNames()),
		VMOut: ml.NewDataset(VMNetFeatureNames()),
		PMCPU: ml.NewDataset(PMCPUFeatureNames()),
		VMRT:  ml.NewDataset(VMRTFeatureNames()),
		VMSLA: ml.NewDataset(VMSLAFeatureNames()),
	}
}

// HarvestOpts controls data collection.
type HarvestOpts struct {
	Seed uint64
	// Ticks is how long to run the instrumented fleet.
	Ticks int
	// ShuffleEvery re-randomises the placement each period so the data
	// covers consolidated, spread, and overloaded configurations.
	ShuffleEvery int
	// Scenario sizing.
	VMs, PMsPerDC, DCs int
	LoadScale          float64
}

// DefaultHarvestOpts matches the data volumes of Table I (hundreds to a
// couple of thousand instances per model).
func DefaultHarvestOpts(seed uint64) HarvestOpts {
	return HarvestOpts{
		Seed:         seed,
		Ticks:        2 * model.TicksPerDay,
		ShuffleEvery: 5,
		VMs:          6,
		PMsPerDC:     2,
		DCs:          4,
		LoadScale:    2.5,
	}
}

// Collect runs an instrumented scenario under periodically randomised
// placements and records the monitored view into a Harvest. The data the
// models see is exactly what a production middleware could log: gateway
// load characteristics, quota grants, noisy usage samples, response times
// and SLA levels.
func Collect(opts HarvestOpts) (*Harvest, error) {
	if opts.Ticks <= 0 {
		return nil, fmt.Errorf("predict: Ticks must be positive")
	}
	if opts.ShuffleEvery <= 0 {
		opts.ShuffleEvery = 10
	}
	spec := scenario.MustPreset(scenario.Harvest, opts.Seed)
	spec.VMs = opts.VMs
	spec.PMsPerDC = opts.PMsPerDC
	spec.DCs = opts.DCs
	spec.LoadScale = opts.LoadScale
	// Spread each VM's load scale around the nominal value so the training
	// data covers light through pathological regimes — the deployed models
	// must not extrapolate when an experiment runs hotter than the harvest.
	spec.VMScale = make(map[model.VMID][]float64, opts.VMs)
	for i := 0; i < opts.VMs; i++ {
		f := opts.LoadScale * (0.4 + 0.45*float64(i))
		spec.VMScale[model.VMID(i)] = []float64{f, f, f, f}
	}
	sc, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	h := NewHarvest()
	stream := rng.NewNamed(opts.Seed, "predict/harvest")
	world := sc.World
	pms := sc.Inventory.PMs()

	randomPlacement := func() model.Placement {
		p := make(model.Placement, len(sc.VMs))
		// Bias toward fewer hosts so consolidation stress appears often:
		// draw a subset of hosts, then spread VMs across only those.
		k := 1 + stream.IntN(len(pms))
		perm := stream.Perm(len(pms))
		hosts := perm[:k]
		for _, vm := range sc.VMs {
			p[vm.ID] = pms[hosts[stream.IntN(len(hosts))]].ID
		}
		return p
	}
	if err := world.PlaceInitial(randomPlacement()); err != nil {
		return nil, err
	}

	for t := 0; t < opts.Ticks; t++ {
		if t > 0 && t%opts.ShuffleEvery == 0 {
			if err := world.ApplySchedule(randomPlacement()); err != nil {
				return nil, err
			}
		}
		world.Step()
		h.RecordTick(world)
	}
	return h, nil
}

// RecordTick folds the current monitored tick of a live world into the
// datasets — the same code path harvests offline training data and feeds
// the online-learning updater.
func (h *Harvest) RecordTick(world *sim.World) {
	obs := world.Observer()
	// Per-VM rows, from the static population: slots [0, inventory VMs).
	perPM := slices.Grow(h.perPM[:0], world.NumPMs())[:world.NumPMs()]
	clear(perPM)
	h.perPM = perPM
	for i := 0; i < world.Inventory().NumVMs(); i++ {
		spec := world.VMSpecAt(i)
		truth, ok := world.VMTruthByIndex(i)
		j := world.HostIndexOf(i)
		if !ok || j < 0 {
			continue
		}
		sample, ok := obs.LastVM(i)
		if !ok || truth.Migrating {
			continue // migration ticks are blackout noise, skip as the paper does
		}
		load := sample.Load
		queue := sample.QueueLen
		// Requirement models (CPU, MEM) learn "what the VM uses to serve
		// this load"; rows where the quota was binding describe starvation,
		// not requirement, and the middleware can tell the two apart by
		// comparing usage against the grant it set. RT/SLA models keep all
		// rows — starvation is exactly their subject.
		if truth.Used.CPUPct < 0.95*truth.Granted.CPUPct {
			h.row = VMCPUFeaturesInto(h.row, load, queue)
			h.VMCPU.Add(h.row, sample.Usage.CPUPct)
		}
		if truth.Used.MemMB < 0.98*truth.Granted.MemMB || truth.Required.MemMB <= truth.Granted.MemMB {
			h.row = VMMemFeaturesInto(h.row, load)
			h.VMMem.Add(h.row, sample.Usage.MemMB)
		}
		// Network targets come from the monitored NIC counter, split by the
		// request/reply byte ratio — noisy and saturation-capped, like the
		// paper's measured traffic.
		inKB, outKB := splitTraffic(sample.Usage.BWMbps, load)
		h.row = VMNetFeaturesInto(h.row, load.RPS, load.BytesInReq)
		h.VMIn.Add(h.row, inKB)
		h.row = VMNetFeaturesInto(h.row, load.RPS, load.BytesOutRq)
		h.VMOut.Add(h.row, outKB)
		memDef := MemDeficitFrac(truth.Granted.MemMB, truth.Required.MemMB)
		h.row = VMRTFeaturesInto(h.row, load, truth.Granted.CPUPct, memDef, queue)
		h.VMRT.Add(h.row, sample.RT)
		// SLA target: the processing component only, measured at the host's
		// own gateway. Transport is deterministic and added at prediction
		// time (Figure 3, constraints 6.2-6.3).
		procSLA := spec.Terms.Fulfilment(sample.RT)
		h.row = VMSLAFeaturesInto(h.row, load, truth.Granted.CPUPct, memDef, queue)
		h.VMSLA.Add(h.row, procSLA)

		agg := &perPM[j]
		agg.guests++
		agg.sumCPU += sample.Usage.CPUPct
		agg.sumRPS += load.RPS
	}
	// Per-PM rows: the target is this tick's PM observation so features and
	// label stay time-aligned.
	for j := range perPM {
		agg := &perPM[j]
		if agg.guests == 0 {
			continue // off machines carry no signal
		}
		if obsPM, ok := obs.LastPM(j); ok {
			h.row = PMCPUFeaturesInto(h.row, agg.guests, agg.sumCPU, agg.sumRPS)
			h.PMCPU.Add(h.row, obsPM.CPUPct)
		}
	}
}

// splitTraffic divides a monitored NIC rate (Mbps) into inbound and
// outbound KB/s using the load's byte ratio.
func splitTraffic(bwMbps float64, load model.Load) (inKB, outKB float64) {
	totalBytes := load.BytesInReq + load.BytesOutRq
	if totalBytes <= 0 {
		return 0, 0
	}
	totalKB := bwMbps * 1e6 / 8 / 1024
	inKB = totalKB * load.BytesInReq / totalBytes
	outKB = totalKB * load.BytesOutRq / totalBytes
	return inKB, outKB
}

// Clone returns a harvest whose datasets hold the same rows but share no
// slice spines with the original: the clone is safe to train from on
// another goroutine while the original keeps growing. Individual rows
// ARE shared — a recorded row is immutable (RecordTick appends fresh
// slices, tail only re-slices), so sharing them is sound and cheap.
func (h *Harvest) Clone() *Harvest {
	out := NewHarvest()
	src := h.datasets()
	dst := out.datasets()
	for i := range src {
		dst[i].X = append(dst[i].X, src[i].X...)
		dst[i].Y = append(dst[i].Y, src[i].Y...)
	}
	return out
}
