package trace

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/model"
)

// goldenCase is one generator configuration of the Fill parity suite,
// with the FNV-64a digest of every Fill row over goldenTicks.
type goldenCase struct {
	name   string
	cfg    func() Config
	ids    []model.VMID // query order, may hold unknown and duplicate IDs
	widths []int        // dst row lengths, cycled over ids
	digest uint64
}

// goldenTicks are the 48 ticks each case is digested over: one every
// half hour across a day, so every local hour of every timezone and
// every crowd window below is visited.
func goldenTicks() []int {
	ticks := make([]int, 48)
	for i := range ticks {
		ticks[i] = i * 30
	}
	return ticks
}

func goldenVMs(n int) []model.VMSpec {
	vms := make([]model.VMSpec, n)
	for i := range vms {
		vms[i] = vmSpec(i, i%3)
	}
	return vms
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			// TZ offsets, per-VM Scale rows (full, short, absent),
			// overlapping crowds on VM 1, an explicit class for VM 2,
			// the default DiurnalFloor and HomeBias.
			name: "tz-scale-crowds",
			cfg: func() Config {
				return Config{
					Seed:      11,
					Sources:   4,
					VMs:       goldenVMs(6),
					TZOffsetH: PaperTZOffsets(),
					ClassOf:   map[model.VMID]ServiceClass{2: DynamicWeb},
					Scale: map[model.VMID][]float64{
						0: {2, 0.5, 1.5, 3},
						1: {0.25, 4},
						4: {},
					},
					NoiseSD: 0.1,
					Crowds: []FlashCrowd{
						{StartTick: 60, EndTick: 400, Magnitude: 3, Source: 1, VM: 1},
						{StartTick: 200, EndTick: 700, Magnitude: 7, Source: 1, VM: 1},
						{StartTick: 300, EndTick: 360, Magnitude: 5, Source: 0, VM: 1},
						{StartTick: 900, EndTick: 1200, Magnitude: 4, Source: 3, VM: 5},
						{StartTick: 0, EndTick: 1440, Magnitude: 2, Source: 2, VM: 99},
					},
				}
			},
			ids:    []model.VMID{0, 1, 2, 99, 3, 1, 4, 5, -7},
			widths: []int{4, 2, 4, 4, 0, 6},
			digest: 0xd592015c979091d7,
		},
		{
			// No TZ offsets, six sources, no noise, an explicit floor and
			// home bias, duplicate IDs in the config itself.
			name: "no-tz-no-noise",
			cfg: func() Config {
				vms := goldenVMs(5)
				vms = append(vms, vmSpec(3, 2), vmSpec(0, 5))
				return Config{
					Seed:         3,
					Sources:      6,
					VMs:          vms,
					HomeBias:     0.8,
					DiurnalFloor: 0.3,
					Crowds: []FlashCrowd{
						{StartTick: 480, EndTick: 720, Magnitude: 6, Source: 5, VM: 0},
					},
				}
			},
			ids:    []model.VMID{4, 3, 2, 1, 0, 3, 42},
			widths: []int{6, 3, 6, 7},
			digest: 0xf818ea3786754981,
		},
		{
			// One client location: every VM's share is the whole load.
			name: "single-source",
			cfg: func() Config {
				return Config{
					Seed:    5,
					Sources: 1,
					VMs:     goldenVMs(3),
					NoiseSD: 0.2,
					Scale:   map[model.VMID][]float64{1: {1.75}},
				}
			},
			ids:    []model.VMID{0, 1, 2},
			widths: []int{1, 1, 2},
			digest: 0xd24a539468ad9ba2,
		},
		{
			name: "rotating",
			cfg: func() Config {
				return RotatingConfig(9, vmSpec(0, 1), 6, GlobalTZOffsets())
			},
			ids:    []model.VMID{0, 0, 1},
			widths: []int{6},
			digest: 0x7d66d764f95109c5,
		},
	}
}

func goldenRows(c goldenCase) []model.LoadVector {
	dst := make([]model.LoadVector, len(c.ids))
	for i := range dst {
		dst[i] = make(model.LoadVector, c.widths[i%len(c.widths)])
	}
	return dst
}

func hashRow(h io.Writer, row model.LoadVector) {
	var b [8]byte
	for _, l := range row {
		for _, f := range [...]float64{l.RPS, l.BytesInReq, l.BytesOutRq, l.CPUTimeReq} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
	}
}

func sameRow(a, b model.LoadVector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].RPS) != math.Float64bits(b[i].RPS) ||
			math.Float64bits(a[i].BytesInReq) != math.Float64bits(b[i].BytesInReq) ||
			math.Float64bits(a[i].BytesOutRq) != math.Float64bits(b[i].BytesOutRq) ||
			math.Float64bits(a[i].CPUTimeReq) != math.Float64bits(b[i].CPUTimeReq) {
			return false
		}
	}
	return true
}

// TestGeneratorFillGolden pins the generator's output bit for bit: an
// FNV-64a digest over every Fill row for 48 ticks per configuration. The
// same rows must come back from a reversed query order with the ticks
// visited backwards, from Loads and LoadsFor, and Fill must not allocate.
func TestGeneratorFillGolden(t *testing.T) {
	ticks := goldenTicks()
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			g, err := NewGenerator(c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			dst := goldenRows(c)
			want := make([][]model.LoadVector, len(ticks))
			h := fnv.New64a()
			for k, tick := range ticks {
				g.Fill(tick, c.ids, dst)
				want[k] = make([]model.LoadVector, len(dst))
				for i, row := range dst {
					hashRow(h, row)
					want[k][i] = slices.Clone(row)
				}
			}
			if got := h.Sum64(); got != c.digest {
				t.Errorf("Fill digest = %#x, want %#x", got, c.digest)
			}

			rev := slices.Clone(c.ids)
			slices.Reverse(rev)
			revDst := make([]model.LoadVector, len(dst))
			for i := range dst {
				revDst[len(dst)-1-i] = make(model.LoadVector, len(dst[i]))
			}
			for k := len(ticks) - 1; k >= 0; k-- {
				tick := ticks[k]
				g.Fill(tick, rev, revDst)
				for i := range rev {
					if !sameRow(revDst[len(rev)-1-i], want[k][i]) {
						t.Fatalf("tick %d: reversed Fill of vm %v differs", tick, c.ids[i])
					}
				}
				loads := g.Loads(tick)
				for i, id := range c.ids {
					full := g.LoadsFor(id, tick)
					if len(full) != g.Sources() {
						t.Fatalf("LoadsFor(%v) has %d sources, want %d", id, len(full), g.Sources())
					}
					n := min(len(full), len(want[k][i]))
					if !sameRow(full[:n], want[k][i][:n]) {
						t.Fatalf("tick %d: LoadsFor(%v) differs from Fill", tick, id)
					}
					if lv, ok := loads[id]; ok && !sameRow(lv, full) {
						t.Fatalf("tick %d: Loads[%v] differs from LoadsFor", tick, id)
					}
				}
			}

			allocs := testing.AllocsPerRun(20, func() {
				g.Fill(ticks[7], c.ids, dst)
				g.Fill(ticks[8], c.ids, dst)
			})
			if allocs != 0 {
				t.Fatalf("Fill allocates %v times per run, want 0", allocs)
			}
		})
	}
}
