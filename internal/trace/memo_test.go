package trace

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/model"
)

// memoReader is one run reading through a shared memo: its own generator,
// query order, widths and tick order.
type memoReader struct {
	ids    []model.VMID
	widths []int
	ticks  []int
}

// memoReaders returns three runs over one golden case: the case's own query
// in a shuffled tick order, every other ID plus an unknown one with
// other widths, and the reversed query with the ticks backwards.
func memoReaders(c goldenCase, seed uint64) []memoReader {
	r := rand.New(rand.NewPCG(seed, 1))
	shuffled := goldenTicks()
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	backwards := goldenTicks()
	for i, j := 0, len(backwards)-1; i < j; i, j = i+1, j-1 {
		backwards[i], backwards[j] = backwards[j], backwards[i]
	}
	var every []model.VMID
	for i := 0; i < len(c.ids); i += 2 {
		every = append(every, c.ids[i])
	}
	every = append(every, 1<<20)
	rev := make([]model.VMID, len(c.ids))
	for i, id := range c.ids {
		rev[len(rev)-1-i] = id
	}
	return []memoReader{
		{ids: c.ids, widths: c.widths, ticks: shuffled},
		{ids: every, widths: []int{1, 8, 0}, ticks: goldenTicks()},
		{ids: rev, widths: []int{3}, ticks: backwards},
	}
}

// read fills every tick through g and through a plain generator of the
// same case and reports rows that differ; g's rows are poisoned before
// each fill, so a slot Fill leaves unwritten shows. It uses only
// t.Errorf, so it may run on any goroutine.
func (mr memoReader) read(t *testing.T, c goldenCase, g *Generator) {
	plain, err := NewGenerator(c.cfg())
	if err != nil {
		t.Error(err)
		return
	}
	got := goldenRows(goldenCase{ids: mr.ids, widths: mr.widths})
	want := goldenRows(goldenCase{ids: mr.ids, widths: mr.widths})
	for _, tick := range mr.ticks {
		for _, row := range got {
			for i := range row {
				row[i] = model.Load{RPS: -1, BytesInReq: -1, BytesOutRq: -1, CPUTimeReq: -1}
			}
		}
		g.Fill(tick, mr.ids, got)
		plain.Fill(tick, mr.ids, want)
		for i := range got {
			if !sameRow(got[i], want[i]) {
				t.Errorf("tick %d: row of vm %v (width %d) differs from Generator.Fill", tick, mr.ids[i], len(got[i]))
				return
			}
		}
	}
}

// knownPairs counts the distinct (known VM, tick) rows the readers ask for.
func knownPairs(t *testing.T, c goldenCase, rs []memoReader) int64 {
	g, err := NewGenerator(c.cfg())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[model.VMID]bool)
	for _, r := range rs {
		for _, id := range r.ids {
			if _, ok := g.index[id]; ok {
				seen[id] = true
			}
		}
	}
	return int64(len(seen) * len(goldenTicks()))
}

func memoGenerator(t *testing.T, c goldenCase, m *Memo) *Generator {
	g, err := NewGenerator(c.cfg())
	if err != nil {
		t.Fatal(err)
	}
	g.UseMemo(m)
	return g
}

// TestMemoMatchesFill checks that rows read through a shared memo equal
// Generator.Fill bit for bit whichever generator fills them first, under
// shuffled tick orders, VM subsets, unknown IDs and short or long rows,
// and that each distinct row is computed once.
func TestMemoMatchesFill(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			m := NewMemo()
			rs := memoReaders(c, 1)
			for _, r := range rs {
				r.read(t, c, memoGenerator(t, c, m))
			}
			fills, hits := m.Counts()
			if want := knownPairs(t, c, rs); fills != want {
				t.Errorf("memo computed %d rows, want each of the %d distinct rows once", fills, want)
			}
			if hits == 0 {
				t.Error("no row was served from the memo")
			}
		})
	}
}

// TestMemoOverBudget checks the capped memo: with no room at all, and
// with room for a few ticks' tables and rows, rows still equal
// Generator.Fill and the memo never stores past its budget.
func TestMemoOverBudget(t *testing.T) {
	for _, c := range goldenCases() {
		for _, budget := range []int{0, 3 * 1024} {
			t.Run(fmt.Sprintf("%s/budget=%d", c.name, budget), func(t *testing.T) {
				m := NewMemo()
				m.budget = budget
				rs := memoReaders(c, 2)
				for _, r := range rs {
					r.read(t, c, memoGenerator(t, c, m))
				}
				if m.bytes > budget {
					t.Errorf("memo holds %d bytes, budget %d", m.bytes, budget)
				}
				fills, _ := m.Counts()
				if want := knownPairs(t, c, rs); fills <= want {
					t.Errorf("memo computed %d rows, want more than the %d distinct rows once it is full", fills, want)
				}
			})
		}
	}
}

// TestMemoConcurrentReaders shares one memo between goroutines that each
// read through their own generator at once; under -race it checks the
// memo's locking, and every row must still equal Generator.Fill.
func TestMemoConcurrentReaders(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			m := NewMemo()
			var wg sync.WaitGroup
			for w := uint64(0); w < 4; w++ {
				for _, r := range memoReaders(c, 10+w) {
					g := memoGenerator(t, c, m)
					wg.Add(1)
					go func() {
						defer wg.Done()
						r.read(t, c, g)
					}()
				}
			}
			wg.Wait()
		})
	}
}

// TestMemoRejectsOtherConfig checks that a memo refuses a generator built
// from a different configuration.
func TestMemoRejectsOtherConfig(t *testing.T) {
	cs := goldenCases()
	m := NewMemo()
	memoGenerator(t, cs[0], m)
	defer func() {
		if recover() == nil {
			t.Error("UseMemo accepted a generator of another configuration")
		}
	}()
	memoGenerator(t, cs[1], m)
}
