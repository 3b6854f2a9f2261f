package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval recorded by the benchmark around a call
// into one layer of the program. Parent is the ID of the span that
// caused it (0 for a pass root); Req names the request the span serves:
// a tick number, an offer name or a pass number.
type span struct {
	ID, Parent  int
	Name, Layer string
	Req         string
	Start, End  time.Duration // since the tracer's epoch
	Synthetic   bool          // placed from a program counter, not timed here
}

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// tracer records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	epoch  time.Time
	spans  []span
	server []serverSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, layer string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, Req: req, Start: now, End: now})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch)
}

// synth records a child span that ends when its parent's call returned
// and lasts dur: the program reports how long a phase took (an engine
// tick, say) but not when it started, and the phase is the last thing
// the call does.
func (t *tracer) synth(name, layer string, parent int, dur time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, Req: p.Req,
		Start: p.End - dur, End: p.End, Synthetic: true})
}

// serverSpan is one span from the service's own /debug/trace ring,
// already shifted onto the benchmark's clock.
type serverSpan struct {
	Name, Cat  string
	TID        int
	Start, End time.Duration
}

// mergeServer appends the service's Chrome trace (as served by
// /debug/trace) to the run's trace. The service's trace clock starts when
// it was built; started is when the benchmark called serve.New, so the
// alignment error is at most the service's construction time.
func (t *tracer) mergeServer(data []byte, started time.Time) error {
	if t == nil {
		return nil
	}
	var evs []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		TID  int     `json:"tid"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal(data, &evs); err != nil {
		return fmt.Errorf("parsing service trace: %w", err)
	}
	off := started.Sub(t.epoch)
	for _, e := range evs {
		s := off + time.Duration(e.TS*1e3)
		t.server = append(t.server, serverSpan{Name: e.Name, Cat: e.Cat, TID: e.TID, Start: s, End: s + time.Duration(e.Dur*1e3)})
	}
	return nil
}

// selfTimes returns each layer's self time — a span's duration minus the
// part of it that its children cover — summed over every span, and the
// summed duration of the root spans they all descend from.
func (t *tracer) selfTimes() (byLayer map[string]time.Duration, roots time.Duration) {
	byLayer = map[string]time.Duration{}
	kids := make(map[int][]*span)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == 0 {
			roots += s.End - s.Start
		} else {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		byLayer[s.Layer] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return byLayer, roots
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, children []*span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write stores the trace as Chrome trace-event JSON: the benchmark's
// spans as process 1, the service's merged spans as process 2. Every
// event carries args.parent and args.req; a service span's parent is the
// innermost benchmark span that encloses it.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type args struct {
		ID     int    `json:"id,omitempty"`
		Parent int    `json:"parent"`
		Req    string `json:"req"`
		Synth  bool   `json:"synthetic,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args args    `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	enc := json.NewEncoder(w)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	n := 0
	emit := func(e event) error {
		if n > 0 {
			w.WriteString(",")
		}
		n++
		return enc.Encode(e)
	}
	for _, s := range t.spans {
		if err := emit(event{s.Name, s.Layer, "X", 1, 1, us(s.Start), us(s.End - s.Start),
			args{s.ID, s.Parent, s.Req, s.Synthetic}}); err != nil {
			f.Close()
			return err
		}
	}
	byStart := make([]*span, len(t.spans))
	for i := range t.spans {
		byStart[i] = &t.spans[i]
	}
	sort.SliceStable(byStart, func(i, j int) bool { return byStart[i].Start < byStart[j].Start })
	for _, s := range t.server {
		parent, req := enclosing(byStart, s.Start, s.End)
		if err := emit(event{s.Name, s.Cat, "X", 2, s.TID, us(s.Start), us(s.End - s.Start),
			args{Parent: parent, Req: req}}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// enclosing finds the latest-starting benchmark span that contains
// [start, end], which for properly nested spans is the innermost one.
func enclosing(byStart []*span, start, end time.Duration) (id int, req string) {
	k := sort.Search(len(byStart), func(i int) bool { return byStart[i].Start > start })
	for i := k - 1; i >= 0; i-- {
		if s := byStart[i]; s.End >= end {
			return s.ID, s.Req
		}
	}
	return 0, ""
}
