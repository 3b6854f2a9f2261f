package trace

import (
	"sync"
	"unsafe"

	"repro/internal/model"
)

// memoBudget caps the bytes one Memo stores. A simulated day of a
// standard preset needs 0.2–7 MiB (the churn and fault presets the
// most); xlarge stores its first ~170 ticks and hyperscale its first ~8
// before the cap is reached.
const memoBudget = 32 << 20

// loadBytes is the size of one stored model.Load.
const loadBytes = int(unsafe.Sizeof(model.Load{}))

// Memo is a table of generator rows shared by several runs of one
// workload: generators built from the same Config that read through it
// (UseMemo) compute each (VM, tick) row once between them. A row is a
// pure function of (Config, VM, tick), so which run fills it first
// changes no bit of what any run reads.
//
// The table is filled lazily under one mutex and keeps per tick only the
// rows some run asked for. Once it holds its byte budget it stores
// nothing more: rows it lacks are then filled straight into the
// caller's buffer by the caller's own generator. A Memo is safe for
// concurrent use; each generator reading through it still belongs to one
// goroutine.
type Memo struct {
	mu     sync.Mutex
	key    memoKey
	ticks  map[int]*memoTick
	bytes  int
	budget int
	// fills counts the rows generators filled themselves (in a tick the
	// table does not hold, unknown IDs included), hits the rows copied
	// from the table.
	fills, hits int64
}

// memoKey identifies the Config of the generators sharing a Memo; the
// zero key means no generator has attached yet.
type memoKey struct {
	seed         uint64
	sources, vms int
}

// memoTick holds one tick's stored rows.
type memoTick struct {
	at   []int32      // per generator entry: 1 + its row index in rows, 0 = not stored
	rows []model.Load // Sources loads per stored row, in fill order
}

// NewMemo returns an empty memo with the fixed byte budget.
func NewMemo() *Memo {
	return &Memo{ticks: make(map[int]*memoTick), budget: memoBudget}
}

// UseMemo makes g's Fill read through m. Every generator sharing m must
// be built from the same Config; attaching one whose seed, source count
// or VM count differs from the first generator's panics.
func (g *Generator) UseMemo(m *Memo) {
	k := memoKey{seed: g.cfg.Seed, sources: g.cfg.Sources, vms: len(g.vms)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.key == (memoKey{}) {
		m.key = k
	} else if m.key != k {
		panic("trace: Memo shared by generators of different configurations")
	}
	g.memo = m
}

// Counts returns how many rows the generators reading through m have
// filled themselves and how many they copied from its table.
func (m *Memo) Counts() (fills, hits int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fills, m.hits
}

// fill is Generator.Fill through the memo: stored rows are copied, the
// rest are computed by g. While there is room, a computed row is stored
// and then copied; otherwise it is computed into dst directly.
func (m *Memo) fill(g *Generator, tick int, vms []model.VMID, dst []model.LoadVector) {
	m.mu.Lock()
	t := m.table(tick)
	if t == nil {
		// The table was full before anyone asked for this tick: fill
		// outside the lock, on g's own stream and day table.
		m.fills += int64(len(vms))
		m.mu.Unlock()
		g.fill(tick, vms, dst)
		return
	}
	defer m.mu.Unlock()
	n := g.cfg.Sources
	daySet := false
	for i, id := range vms {
		row := dst[i]
		k, ok := g.index[id]
		if !ok {
			clear(row)
			continue
		}
		if at := t.at[k]; at > 0 {
			m.hits++
			copyRow(row, t.rows[int(at-1)*n:int(at)*n])
			continue
		}
		if !daySet {
			g.setDay(tick)
			daySet = true
		}
		m.fills++
		stored := m.grow(t, n, len(vms)-i)
		if stored == nil {
			g.fillEntry(k, id, tick, row)
			continue
		}
		g.fillEntry(k, id, tick, stored)
		t.at[k] = int32(len(t.rows) / n)
		copyRow(row, stored)
	}
}

// grow appends room for one row of n loads to t and returns it, or nil
// when the budget has no room. A full slab is replaced by one with room
// for all rest rows still to come in this call, so a tick's rows usually
// take one allocation; the budget counts slab capacity. The caller holds
// mu.
func (m *Memo) grow(t *memoTick, n, rest int) model.LoadVector {
	off := len(t.rows)
	if off+n > cap(t.rows) {
		c := off + rest*n
		extra := (c - cap(t.rows)) * loadBytes
		if m.bytes+extra > m.budget {
			return nil
		}
		m.bytes += extra
		t.rows = append(make([]model.Load, 0, c), t.rows...)
	}
	t.rows = t.rows[:off+n]
	return t.rows[off:]
}

// table returns the tick's table, creating it while the budget allows;
// nil means the tick has none and gets none. The caller holds mu.
func (m *Memo) table(tick int) *memoTick {
	t := m.ticks[tick]
	if t == nil {
		size := 4 * m.key.vms
		if m.bytes+size > m.budget {
			return nil
		}
		t = &memoTick{at: make([]int32, m.key.vms)}
		m.ticks[tick] = t
		m.bytes += size
	}
	return t
}

// copyRow writes a stored full-width row into a caller row of any
// length, as fillFor would: a prefix for short rows, zeros past Sources.
func copyRow(row, stored model.LoadVector) {
	clear(row[copy(row, stored):])
}
