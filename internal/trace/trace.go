// Package trace synthesises the Li-BCN 2010-like workload the paper drives
// its experiments with. The original traces (requests to real hosted
// web-sites: file hosting, image galleries, dynamic sites) are not public,
// so the generator reproduces the statistical features the scheduler reacts
// to:
//
//   - strong diurnal request-rate curves, phase-shifted per client region's
//     timezone (the "simulating the effect of different time zones" of
//     Section V-C);
//   - per-service request mixes: heavy-tailed reply sizes for file hosting,
//     CPU-heavy requests for dynamic sites;
//   - multiplicative noise and bursts;
//   - an optional flash-crowd, as in Figure 6 where minutes 70-90 carry a
//     crowd that "clearly exceeds the capacity of the system";
//   - per-(VM, source) scaling so each of the four workloads can be scaled
//     differently, as the paper does.
package trace

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/model"
	"repro/internal/rng"
)

// ServiceClass captures the per-request characteristics of a hosted
// web-service type.
type ServiceClass struct {
	Name string
	// CPUTimeReq is the mean no-stress CPU seconds per request.
	CPUTimeReq float64
	// BytesInReq is the mean request payload in bytes.
	BytesInReq float64
	// BytesOutReq is the mean reply payload in bytes.
	BytesOutReq float64
	// OutTailAlpha shapes the Pareto tail of reply sizes (smaller = heavier).
	OutTailAlpha float64
	// BaseRPS is the reference request rate at the diurnal peak before any
	// scaling.
	BaseRPS float64
}

// The three service classes of the Li-BCN collection ("from file hosting to
// image-gallery services"), plus a dynamic application profile.
var (
	FileHosting = ServiceClass{
		Name:         "file-hosting",
		CPUTimeReq:   0.004,
		BytesInReq:   400,
		BytesOutReq:  90_000,
		OutTailAlpha: 1.3,
		BaseRPS:      28,
	}
	ImageGallery = ServiceClass{
		Name:         "image-gallery",
		CPUTimeReq:   0.009,
		BytesInReq:   500,
		BytesOutReq:  38_000,
		OutTailAlpha: 1.7,
		BaseRPS:      36,
	}
	DynamicWeb = ServiceClass{
		Name:         "dynamic-web",
		CPUTimeReq:   0.022,
		BytesInReq:   900,
		BytesOutReq:  9_000,
		OutTailAlpha: 2.2,
		BaseRPS:      42,
	}
)

// Classes lists the built-in service classes.
func Classes() []ServiceClass {
	return []ServiceClass{FileHosting, ImageGallery, DynamicWeb}
}

// ClassByIndex returns one of the built-in classes, cycling.
func ClassByIndex(i int) ServiceClass {
	cs := Classes()
	return cs[((i%len(cs))+len(cs))%len(cs)]
}

// FlashCrowd describes a load spike injected on top of the diurnal curve.
type FlashCrowd struct {
	StartTick int     // first tick of the crowd
	EndTick   int     // first tick after the crowd
	Magnitude float64 // multiplier on the affected source's request rate
	Source    model.LocationID
	VM        model.VMID
}

// Config parameterises a Generator.
type Config struct {
	Seed    uint64
	Sources int // number of client locations
	VMs     []model.VMSpec
	ClassOf map[model.VMID]ServiceClass
	// TZOffsetH[loc] shifts that location's diurnal peak, in hours.
	TZOffsetH []float64
	// Scale[vm][loc] multiplies the request rate of that stream; the paper
	// scales "each of the four workloads differently". A nil map means 1.0.
	Scale map[model.VMID][]float64
	// HomeBias is the share of a VM's load originating from its home
	// location at equal diurnal phase (the rest spreads over other sources).
	HomeBias float64
	// NoiseSD is the per-tick multiplicative log-normal noise sigma.
	NoiseSD float64
	// Crowds are optional flash-crowd injections.
	Crowds []FlashCrowd
	// DiurnalFloor is the night-to-peak ratio (0.15 means nights run at 15%
	// of the peak rate).
	DiurnalFloor float64
}

// Generator produces per-tick load vectors for every VM. It is not safe
// for concurrent use: Fill and Loads share one reseedable draw stream and
// one day table. Generators of one Config may share rows through a Memo.
type Generator struct {
	cfg Config
	// index points each known VM ID at its entry in vms; it is the only
	// per-VM map lookup a fill makes.
	index   map[model.VMID]int32
	vms     []vmEntry
	classes []ServiceClass // deduplicated; vmEntry.class indexes it
	crowds  []FlashCrowd   // grouped by VM, config order within a VM
	// shareHome and shareOther split a VM's clients: HomeBias at its home
	// location, the remainder uniform across the others (1 and 1 when
	// there is a single location).
	shareHome, shareOther float64
	// day[loc] is the diurnal factor of location loc at the tick being
	// filled: it depends only on (tick, location), so each Fill computes
	// it once instead of once per VM.
	day []float64
	// scratch is the reusable per-(VM, tick) stream: each fill reseeds it
	// to the state a fresh NewNamed(seed, "trace/<vm>/<tick>") would have,
	// so the draws are identical to building one stream per call without
	// the per-call allocations.
	scratch *rng.Stream
	nameBuf []byte
	// memo, when set by UseMemo, is the row table Fill reads through.
	memo *Memo
}

// vmEntry is one VM resolved against the configuration at construction.
type vmEntry struct {
	home             int32 // home location: HomeDC modulo Sources
	class            int32 // index into Generator.classes
	crowdLo, crowdHi int32 // the VM's flash crowds: Generator.crowds[lo:hi]
	// scale is the VM's Config.Scale row, aliased; locations beyond its
	// length (or a VM without a row) scale by 1.
	scale []float64
}

// NewGenerator validates the configuration and builds a generator. It
// does not modify cfg: VMs without a ClassOf entry get ClassByIndex of
// their position in VMs, recorded in the generator. When an ID appears
// more than once in VMs, the last spec's home DC and the first
// position's default class apply.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Sources <= 0 {
		return nil, fmt.Errorf("trace: Sources must be positive, got %d", cfg.Sources)
	}
	if len(cfg.VMs) == 0 {
		return nil, fmt.Errorf("trace: need at least one VM")
	}
	if len(cfg.TZOffsetH) != 0 && len(cfg.TZOffsetH) != cfg.Sources {
		return nil, fmt.Errorf("trace: TZOffsetH has %d entries, want %d", len(cfg.TZOffsetH), cfg.Sources)
	}
	if cfg.HomeBias < 0 || cfg.HomeBias > 1 {
		return nil, fmt.Errorf("trace: HomeBias %v outside [0,1]", cfg.HomeBias)
	}
	if cfg.DiurnalFloor <= 0 {
		cfg.DiurnalFloor = 0.15
	}
	if cfg.HomeBias == 0 {
		cfg.HomeBias = 0.6
	}
	n := cfg.Sources
	g := &Generator{
		cfg:        cfg,
		index:      make(map[model.VMID]int32, len(cfg.VMs)),
		vms:        make([]vmEntry, 0, len(cfg.VMs)),
		shareHome:  1,
		shareOther: 1,
		day:        make([]float64, n),
		scratch:    rng.New(0, 0),
		nameBuf:    make([]byte, 0, 32),
	}
	if n > 1 {
		g.shareHome = cfg.HomeBias
		g.shareOther = (1 - cfg.HomeBias) / float64(n-1)
	}
	classIdx := make(map[ServiceClass]int32)
	for i := range cfg.VMs {
		vm := &cfg.VMs[i]
		home := int32(int(vm.HomeDC) % n)
		if k, ok := g.index[vm.ID]; ok {
			g.vms[k].home = home
			continue
		}
		class, ok := cfg.ClassOf[vm.ID]
		if !ok {
			class = ClassByIndex(i)
		}
		c, ok := classIdx[class]
		if !ok {
			c = int32(len(g.classes))
			classIdx[class] = c
			g.classes = append(g.classes, class)
		}
		g.index[vm.ID] = int32(len(g.vms))
		g.vms = append(g.vms, vmEntry{home: home, class: c, scale: cfg.Scale[vm.ID]})
	}
	// Group the crowds by VM with a counting sort, which keeps config
	// order within each VM; crowds on unknown VMs never apply.
	for _, c := range cfg.Crowds {
		if k, ok := g.index[c.VM]; ok {
			g.vms[k].crowdHi++
		}
	}
	var off int32
	for k := range g.vms {
		e := &g.vms[k]
		count := e.crowdHi
		e.crowdLo, e.crowdHi = off, off
		off += count
	}
	g.crowds = make([]FlashCrowd, off)
	for _, c := range cfg.Crowds {
		if k, ok := g.index[c.VM]; ok {
			e := &g.vms[k]
			g.crowds[e.crowdHi] = c
			e.crowdHi++
		}
	}
	// Everything per-VM except the roster order now lives in the entries.
	g.cfg.ClassOf, g.cfg.Scale, g.cfg.Crowds = nil, nil, nil
	return g, nil
}

// Sources returns the number of client locations.
func (g *Generator) Sources() int { return g.cfg.Sources }

// Class returns the service class of a VM, or the zero class for a VM the
// generator was not built with.
func (g *Generator) Class(vm model.VMID) ServiceClass {
	k, ok := g.index[vm]
	if !ok {
		return ServiceClass{}
	}
	return g.classes[g.vms[k].class]
}

// diurnal returns the smooth day curve in [floor, 1] for a local hour.
// Peak at 15:00 local time, trough around 03:00, as in web-hosting traces.
func diurnal(localHour, floor float64) float64 {
	phase := (localHour - 15) / 24 * 2 * math.Pi
	base := (math.Cos(phase) + 1) / 2 // 1 at 15:00, 0 at 03:00
	// Sharpen the peak slightly: real traces have a flatter night.
	base = math.Pow(base, 1.3)
	return floor + (1-floor)*base
}

// setDay fills the day table for a tick.
func (g *Generator) setDay(tick int) {
	hourUTC := float64(tick) / float64(model.TicksPerHour)
	for loc := range g.day {
		tz := 0.0
		if len(g.cfg.TZOffsetH) > 0 {
			tz = g.cfg.TZOffsetH[loc]
		}
		localHour := math.Mod(hourUTC+tz+240, 24) // +240 keeps Mod positive
		g.day[loc] = diurnal(localHour, g.cfg.DiurnalFloor)
	}
}

// Fill implements the sim.Workload contract: it writes the load vector of
// vms[i] into dst[i] for every i, overwriting every slot so rows can be
// reused across ticks. Rows shorter than Sources receive a prefix; slots
// beyond Sources are zeroed. The result is deterministic in (seed, tick)
// and independent of query order. Fill performs no per-tick allocations;
// through a Memo (UseMemo) it allocates only when it stores new rows.
func (g *Generator) Fill(tick int, vms []model.VMID, dst []model.LoadVector) {
	if g.memo != nil {
		g.memo.fill(g, tick, vms, dst)
		return
	}
	g.fill(tick, vms, dst)
}

// fill is Fill computing every row.
func (g *Generator) fill(tick int, vms []model.VMID, dst []model.LoadVector) {
	g.setDay(tick)
	for i, id := range vms {
		g.fillFor(id, tick, dst[i])
	}
}

// Loads returns the load vector of every VM at the given tick in a fresh
// map — the convenience form of Fill for exporters and tests.
func (g *Generator) Loads(tick int) map[model.VMID]model.LoadVector {
	g.setDay(tick)
	out := make(map[model.VMID]model.LoadVector, len(g.cfg.VMs))
	for _, vm := range g.cfg.VMs {
		lv := make(model.LoadVector, g.cfg.Sources)
		g.fillFor(vm.ID, tick, lv)
		out[vm.ID] = lv
	}
	return out
}

// LoadsFor returns one VM's load vector at the given tick.
func (g *Generator) LoadsFor(id model.VMID, tick int) model.LoadVector {
	lv := make(model.LoadVector, g.cfg.Sources)
	g.setDay(tick)
	g.fillFor(id, tick, lv)
	return lv
}

// tickStream reseeds the scratch stream to the deterministic per-(vm, tick)
// state, equivalent to rng.NewNamed(seed, fmt.Sprintf("trace/%s/%d", vm, tick))
// without the allocations.
func (g *Generator) tickStream(id model.VMID, tick int) *rng.Stream {
	b := append(g.nameBuf[:0], "trace/vm"...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(tick), 10)
	g.nameBuf = b
	g.scratch.Reseed(g.cfg.Seed, rng.NamedSeedBytes(b))
	return g.scratch
}

// fillFor writes one VM's row; the day table must hold the tick's factors.
func (g *Generator) fillFor(id model.VMID, tick int, row model.LoadVector) {
	k, ok := g.index[id]
	if !ok {
		clear(row)
		return
	}
	g.fillEntry(k, id, tick, row)
}

// fillEntry writes the row of entry k, whose VM is id; the day table must
// hold the tick's factors.
func (g *Generator) fillEntry(k int32, id model.VMID, tick int, row model.LoadVector) {
	clear(row)
	e := &g.vms[k]
	class := &g.classes[e.class]
	crowds := g.crowds[e.crowdLo:e.crowdHi]
	noiseSD := g.cfg.NoiseSD
	// Deterministic per-(vm, tick) stream: noise does not depend on how many
	// times or in what order ticks are queried.
	s := g.tickStream(id, tick)
	for loc := 0; loc < g.cfg.Sources; loc++ {
		share := g.shareOther
		if int32(loc) == e.home {
			share = g.shareHome
		}
		rate := class.BaseRPS * g.day[loc] * share
		if loc < len(e.scale) {
			rate *= e.scale[loc]
		}
		if noiseSD > 0 {
			rate *= s.LogNormal(-noiseSD*noiseSD/2, noiseSD)
		}
		rate += crowdBoost(crowds, model.LocationID(loc), tick, class.BaseRPS)
		if rate < 0 {
			rate = 0
		}
		// Reply sizes: mean of a bounded Pareto re-sampled per tick to give
		// the monitors realistic variation without per-request simulation.
		out := class.BytesOutReq
		if class.OutTailAlpha > 0 {
			out = 0.7*class.BytesOutReq + 0.3*s.Pareto(class.BytesOutReq*0.4, class.OutTailAlpha)
			if out > class.BytesOutReq*20 {
				out = class.BytesOutReq * 20
			}
		}
		cpuReq := class.CPUTimeReq * s.LogNormal(-0.02, 0.2)
		bytesIn := class.BytesInReq * s.LogNormal(-0.005, 0.1)
		if loc >= len(row) {
			continue // draws stay aligned even when the row is short
		}
		row[loc] = model.Load{
			RPS:        rate,
			BytesInReq: bytesIn,
			BytesOutRq: out,
			CPUTimeReq: cpuReq,
		}
	}
}

// crowdBoost is the request rate the first of a VM's crowds active at
// (loc, tick) adds on top of the diurnal rate.
func crowdBoost(crowds []FlashCrowd, loc model.LocationID, tick int, baseRPS float64) float64 {
	for _, c := range crowds {
		if c.Source != loc {
			continue
		}
		if tick < c.StartTick || tick >= c.EndTick {
			continue
		}
		// Ramp up over the first quarter, plateau, ramp down over the last.
		span := float64(c.EndTick - c.StartTick)
		pos := float64(tick-c.StartTick) / span
		env := 1.0
		if pos < 0.25 {
			env = pos / 0.25
		} else if pos > 0.75 {
			env = (1 - pos) / 0.25
		}
		return baseRPS * c.Magnitude * env
	}
	return 0
}

// RotatingConfig builds a configuration where a single VM's dominant load
// source rotates across the locations over the day — the Figure 5 scenario
// where the VM should "follow the load" around the world. Each location
// peaks during its local afternoon, and the VM's client base is spread
// evenly, so the dominant source is whichever region is awake.
func RotatingConfig(seed uint64, vm model.VMSpec, sources int, tzOffsets []float64) Config {
	return Config{
		Seed:         seed,
		Sources:      sources,
		VMs:          []model.VMSpec{vm},
		TZOffsetH:    tzOffsets,
		HomeBias:     1.0 / float64(sources), // even spread: pure rotation
		NoiseSD:      0.05,
		DiurnalFloor: 0.05,
	}
}

// PaperTZOffsets returns the approximate timezone offsets (hours from UTC)
// of the paper's four locations: Brisbane +10, Bangaluru +5.5, Barcelona +1,
// Boston -5.
func PaperTZOffsets() []float64 { return []float64{10, 5.5, 1, -5} }

// GlobalTZOffsets extends PaperTZOffsets with the two extra sites of the
// production-scale topology: Frankfurt +1 and Singapore +8. The first four
// entries match PaperTZOffsets exactly.
func GlobalTZOffsets() []float64 { return []float64{10, 5.5, 1, -5, 1, 8} }
