// Command perfbench is the repository benchmark. It generates seeded
// circuits with the dimensions of ISCAS'89 profiles, hands them to the
// program as .bench text (or request bodies built from it), drives the
// program through the public functions of its packages, times it from
// outside, checks every output, and prints one JSON result line.
//
//	perfbench --workload analyze-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around each public call, writes them as Chrome trace-event
// JSON under --out, and reports the per-layer metrics derived from them.
// WORKLOADS.md describes the workloads and what each metric measures.
package main

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. What a unit of work and a request are depends on
// the workload; WORKLOADS.md gives both for each.
var endToEnd = []metric{
	{"work_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics, reported by every workload with
// --trace 1. A layer a workload does not reach reports 0. Names ending in _s
// are median self seconds per operation, taken from the spans.
var perLayer = []metric{
	{"bench.parse_s", "s"},
	{"netlist.content_hash_s", "s"},
	{"sigprob.topological_s", "s"},
	{"sched.cone_locality_s", "s"},
	{"engine.epp_batch_s", "s"},
	{"ser.assemble_s", "s"},
	{"engine.epp_batch_alloc_mb", "MB"},
	{"engine.swept_nodes_per_site", "count"},
	{"seq.detect_frames4_s", "s"},
	{"simulate.monte_carlo_s", "s"},
	{"simulate.good_sims_per_word", "count"},
	{"eco.cone_hashes_s", "s"},
	{"eco.memo_hit_ratio", "ratio"},
	{"harden.tmr_s", "s"},
	{"harden.swept_sites_per_step", "count"},
	{"serd.handler_hit_ms", "ms"},
	{"serd.transport_ms", "ms"},
	{"serd.report_cache_hit_ratio", "ratio"},
	{"serd.admission_rejected", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"table2.epp_mc_dif_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"failed_ratio", "ratio"},
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(*env) (*outcome, error){
	"analyze-cold": runAnalyze,
	"serve-mixed":  runServe,
	"harden-loop":  runHarden,
	"table2-mc":    runTable2,
}

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 3

// env is what a workload run is given.
type env struct {
	ctx    context.Context
	seed   uint64
	window time.Duration // how long the measured loop runs
	tr     *Tracer       // nil unless --trace 1
	nproc  int           // clients and engine workers never exceed it
}

// tracerFor returns the tracer for operation id: in a traced run every
// second operation is traced and the others run plain, so the same run
// measures the tracing overhead.
func (e *env) tracerFor(id int) *Tracer {
	if e.tr != nil && id%2 == 0 {
		return e.tr
	}
	return nil
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	work              float64         // work units completed by the measured operations
	busy              time.Duration   // time those operations took
	lat               []time.Duration // request latencies behind p50_ms
	setups            []time.Duration
	layer             map[string][]float64 // per-operation samples of per-layer metrics not derived from spans
	exact             map[string]float64   // work counters that must repeat exactly (setExact)
	plain, traced     []time.Duration      // operation times by mode, in a traced run
	peaks             []float64            // resident-set peak of each operation (serve-mixed: of the window), MB
}

func newOutcome() *outcome {
	return &outcome{layer: map[string][]float64{}, exact: map[string]float64{}}
}

// sample adds one operation's value of a per-layer metric; the run reports
// the median.
func (o *outcome) sample(name string, v float64) {
	o.layer[name] = append(o.layer[name], v)
}

// failf counts one failed operation and says why on standard error.
func (o *outcome) failf(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// setExact records a work counter that must repeat exactly — between the
// operations of one run, and between runs of one build on one seed
// (checkRepeat) — or returns an error when an earlier operation of the run
// produced a different value. The exact counters are
// engine.swept_nodes_per_site, simulate.good_sims_per_word,
// harden.swept_sites_per_step, eco.memo_hit_ratio and
// table2.epp_mc_dif_pct.
func (o *outcome) setExact(name string, v float64) error {
	if prev, ok := o.exact[name]; ok && !sameBits(prev, v) {
		return fmt.Errorf("%s = %v, earlier operations gave %v", name, v, prev)
	}
	o.exact[name] = v
	return nil
}

// timeSetups runs fn setupReps times and records each duration.
func (o *outcome) timeSetups(fn func() error) error {
	for range setupReps {
		runtime.GC()
		t := time.Now()
		if err := fn(); err != nil {
			return err
		}
		o.setups = append(o.setups, time.Since(t))
	}
	return nil
}

// measure runs op back to back until the measurement window has passed,
// and at least minOps times. op times the part of its work that is the
// program's and returns the work units done; its checks run outside that
// time. An error fails the operation. startPeak before each operation,
// outside its time, also starts every operation from the same heap, so
// garbage left by the previous one does not bill it for a collection.
func (o *outcome) measure(e *env, op func(id int, tr *Tracer) (work float64, took time.Duration, err error)) {
	const minOps = 2
	start := time.Now()
	for id := 1; id <= minOps || time.Since(start) < e.window; id++ {
		tr := e.tracerFor(id)
		o.attempted++
		startPeak()
		work, took, err := op(id, tr)
		o.endPeak()
		if err != nil {
			o.failf("op %d: %v", id, err)
			continue
		}
		o.work += work
		o.busy += took
		o.lat = append(o.lat, took)
		o.record(tr != nil, took)
	}
	q1, q2, q3 := quartiles(durationsMs(o.lat))
	fmt.Fprintf(os.Stderr, "perfbench: %d operations, op time quartiles %.1f / %.1f / %.1f ms\n", len(o.lat), q1, q2, q3)
}

// startPeak collects garbage, returns free memory to the system and resets
// the resident-set high-water mark to the current resident set, so that
// endPeak reads the peak of the work in between: the workload's own, not
// that of its inputs, references or earlier operations. Where the mark
// cannot be reset (Linux 4.0 and later can), endPeak records the process's
// peak so far.
func startPeak() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// endPeak records the peak since startPeak.
func (o *outcome) endPeak() { o.peaks = append(o.peaks, peakRSSMB()) }

// record files an operation time under its mode for trace.overhead_pct.
func (o *outcome) record(traced bool, took time.Duration) {
	if traced {
		o.traced = append(o.traced, took)
	} else {
		o.plain = append(o.plain, took)
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: analyze-cold, serve-mixed, harden-loop or table2-mc")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Int("seconds", 10, "length of the measured loop in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for the trace file and the exact-repeat records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runFn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	e := &env{ctx: context.Background(), seed: *seed, window: time.Duration(*secs) * time.Second, nproc: runtime.NumCPU()}
	if *trace == 1 {
		e.tr = newTracer()
	}
	o, err := runFn(e)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if o.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	if err := checkRepeat(*out, *name, *seed, o); err != nil {
		return err
	}

	metrics := map[string]any{}
	put := func(m metric, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if e.tr == nil {
		vals := map[string]float64{
			"work_per_s":  o.work / o.busy.Seconds(),
			"p50_ms":      median(durationsMs(o.lat)),
			"setup_s":     median(secondsOf(o.setups)),
			"peak_rss_mb": median(o.peaks),
		}
		for _, m := range endToEnd {
			put(m, vals[m.name])
		}
	} else {
		spans := e.tr.Spans()
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		if err := writeChromeTrace(path, spans); err != nil {
			return err
		}
		vals := layerMetrics(spans, o)
		for _, m := range perLayer {
			put(m, vals[m.name])
		}
		shares := layerShares(spans)
		names := make([]string, 0, len(shares))
		for n := range shares {
			names = append(names, n)
		}
		slices.SortFunc(names, func(a, b string) int { return cmp.Compare(shares[b], shares[a]) })
		fmt.Fprintf(os.Stderr, "perfbench: %s layer shares of traced operation time (trace in %s):\n", *name, path)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-26s %6.2f%%\n", n, 100*shares[n])
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// layerMetrics derives the per-layer metrics of a traced run: median self
// seconds per traced operation for every layer span, then the workload's
// own per-layer figures, the failed ratio and the tracing overhead.
func layerMetrics(spans []Span, o *outcome) map[string]float64 {
	vals := map[string]float64{}
	ops := map[int]bool{}
	for _, s := range spans {
		ops[s.Op] = true
	}
	for name, byOp := range selfByOp(spans) {
		per := make([]float64, 0, len(ops))
		for op := range ops {
			per = append(per, byOp[op].Seconds())
		}
		vals[name+"_s"] = median(per)
	}
	for k, v := range o.layer {
		vals[k] = median(v)
	}
	for k, v := range o.exact {
		vals[k] = v
	}
	vals["failed_ratio"] = failedRatio(o.failed, o.attempted)
	if p := median(durationsMs(o.plain)); p > 0 && len(o.traced) > 0 {
		vals["trace.overhead_pct"] = 100 * (median(durationsMs(o.traced))/p - 1)
	}
	return vals
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB is the resident-set high-water mark in MB (10^6
// bytes), from /proc/self/status; elsewhere it falls back to the memory the
// Go runtime obtained from the system.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(b, []byte("\n")) {
			if f := bytes.Fields(line); len(f) == 3 && string(f[0]) == "VmHWM:" {
				if kb, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}

// checkRepeat compares the run's exact counters with those an earlier run
// of the same build, workload and seed recorded under dir, and records them
// when no earlier run did. A difference fails one operation.
func checkRepeat(dir, workload string, seed uint64, o *outcome) error {
	if len(o.exact) == 0 {
		return nil
	}
	build, err := buildID()
	if err != nil {
		return err
	}
	got := map[string]string{}
	for k, v := range o.exact {
		got[k] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	dir = filepath.Join(dir, "repeat")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", workload, seed, build))
	if b, err := os.ReadFile(path); err == nil {
		var want map[string]string
		if err := json.Unmarshal(b, &want); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		for k, w := range want {
			if got[k] != w {
				o.failf("%s differs from an earlier run of this build on seed %d (bits %s, earlier %s)", k, seed, got[k], w)
			}
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(got)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// buildID identifies the running binary by a digest of its contents, so
// exact-repeat records never compare two different builds.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
