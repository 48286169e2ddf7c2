package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := slices.Clone(tc.in)
		if got := median(in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		if !slices.Equal(in, tc.in) {
			t.Errorf("median reordered its input: %v", in)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{2, 8}, [3]float64{0.5, 5, 9.5}},
		{[]float64{40, 10, 30, 20}, [3]float64{12.5, 25, 37.5}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestTailPercentile checks the rule "the highest percentile with at least
// ten samples beyond it".
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},  // the median leaves 9 beyond it
		{20, 50, true},  // rank 10, 10 beyond
		{99, 50, true},  // p90 has rank 90: 9 beyond
		{100, 90, true}, // p90 rank 90: 10 beyond; p99 rank 99: 1
		{999, 90, true}, // p99 rank 990: 9 beyond
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		p, ok := tailPercentile(tc.n, 10)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestFailedRatioBase(t *testing.T) {
	// The base is every operation attempted, failed ones included.
	if got := failedRatio(1, 4); got != 0.25 {
		t.Errorf("failedRatio(1, 4) = %v, want 0.25", got)
	}
	if got := failedRatio(0, 0); got != 0 {
		t.Errorf("failedRatio(0, 0) = %v, want 0", got)
	}
	o := newOutcome()
	e := &env{window: 0}
	n := 0
	o.measure(e, func(id int, tr *Tracer) (float64, time.Duration, error) {
		n++
		if id == 1 {
			return 0, 0, os.ErrInvalid
		}
		return 1, time.Millisecond, nil
	})
	if o.attempted != n || o.failed != 1 || o.work != float64(n-1) || len(o.lat) != n-1 {
		t.Errorf("after %d operations, one failing: attempted %d failed %d work %v samples %d", n, o.attempted, o.failed, o.work, len(o.lat))
	}
}

func span(id, parent, op int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end}
}

// TestSelfTimeOverlappingChildren subtracts the union of the children's
// intervals, not their sum, and clips children to the parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, 1, "op", 0, 100),
		span(2, 1, 1, "a", 10, 40),    // overlaps 3
		span(3, 1, 1, "b", 30, 50),    // union of 2 and 3: [10, 50)
		span(4, 1, 1, "c", 60, 70),    // disjoint
		span(5, 1, 1, "d", 95, 120),   // clipped to [95, 100)
		span(6, 2, 1, "e", 15, 20),    // grandchild: counts against a only
		span(7, 0, 2, "op", 200, 210), // another operation, no children
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 45, 2: 25, 3: 20, 4: 10, 5: 25, 6: 5, 7: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byOp := selfByOp(spans)
	if byOp["op"][1] != 45 || byOp["op"][2] != 10 || byOp["a"][1] != 25 {
		t.Errorf("selfByOp = %v", byOp)
	}
	shares := layerShares(spans)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	// Span 5 runs past its parent, so the shares add to a little over one.
	if want := 140.0 / 110; sum < want-1e-12 || sum > want+1e-12 {
		t.Errorf("layer shares sum to %v, want %v", sum, want)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", 1, 0)
	tr.End(id)
	if tr.Spans() != nil {
		t.Error("a nil tracer recorded spans")
	}
	tr = newTracer()
	root := tr.Begin("op", 1, 0)
	child := tr.Begin("a", 1, root)
	tr.End(child)
	tr.Begin("open", 1, root) // never ended: not reported
	tr.End(root)
	got := tr.Spans()
	if len(got) != 2 || got[0].Name != "op" || got[1].Parent != root {
		t.Errorf("spans = %+v", got)
	}
}

// TestTracerConcurrent records spans from several goroutines at once, as
// the serve-mixed clients do; run it with -race.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for k := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				root := tr.Begin("op", k*1000+i, 0)
				tr.End(tr.Begin("a", k*1000+i, root))
				tr.End(root)
			}
		}()
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != 800 {
		t.Fatalf("recorded %d spans, want 800", len(spans))
	}
	for _, s := range spans {
		if s.Name == "a" && spans[s.Parent-1].Op != s.Op {
			t.Fatalf("span %d has parent %d from another operation", s.ID, s.Parent)
		}
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the metrics and workloads
// this command reports in step.
func TestBenchmarkManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; perfbench runs %d", names, len(workloads))
	}
	for _, tc := range []struct {
		manifest []struct{ Name, Unit string }
		code     []metric
	}{{m.EndToEnd, endToEnd}, {m.PerLayer, perLayer}} {
		if len(tc.manifest) != len(tc.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, perfbench reports %d", len(tc.manifest), len(tc.code))
			continue
		}
		for i, x := range tc.manifest {
			if x.Name != tc.code[i].name || x.Unit != tc.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], perfbench %s [%s]", i, x.Name, x.Unit, tc.code[i].name, tc.code[i].unit)
			}
		}
	}
}
