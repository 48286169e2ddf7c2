package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// Span is one timed call into the program, recorded by the benchmark around
// a public function. Spans of one operation share Op; Parent is the ID of
// the span that made the call (0 for an operation's root span).
type Span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Start  time.Duration // since the tracer was created
	End    time.Duration
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced code paths call the same methods at the cost of a
// nil check.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its ID for End and for child spans.
func (t *Tracer) Begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: -1})
	return id
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for each span ID, the span's duration minus the part
// of its interval covered by its children. Children may overlap each other
// (concurrent calls made on behalf of one parent), so the covered part is
// the length of the union of the children's intervals, clipped to the
// parent's.
func selfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals within p's.
func covered(p Span, kids []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]time.Duration) int { return cmp.Compare(a[0], b[0]) })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByOp sums self time per layer name within each operation:
// result[name][op] is the self time of every span called name in op.
func selfByOp(spans []Span) map[string]map[int]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]map[int]time.Duration)
	for _, s := range spans {
		m := out[s.Name]
		if m == nil {
			m = make(map[int]time.Duration)
			out[s.Name] = m
		}
		m[s.Op] += self[s.ID]
	}
	return out
}

// layerShares returns each layer's share of the summed duration of the
// operations' root spans, from self times, so the shares of one workload
// add up to 1.
func layerShares(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	var total time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.End - s.Start
		}
	}
	byName := make(map[string]time.Duration)
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
	}
	out := make(map[string]float64, len(byName))
	if total <= 0 {
		return out
	}
	for name, d := range byName {
		out[name] = float64(d) / float64(total)
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event; chrome://tracing
// and Perfetto open a file of them offline.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, one thread
// lane per operation.
func writeChromeTrace(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Op,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
