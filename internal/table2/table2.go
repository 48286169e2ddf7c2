// Package table2 reproduces the paper's Table 2 ("Our approach vs. random
// simulation"): for each benchmark circuit it measures
//
//	SysT — runtime of the EPP analysis over all nodes (ms)
//	SimT — runtime of random-simulation fault injection over all nodes (s),
//	       extrapolated from a node sample on large circuits exactly as the
//	       paper does ("a limited number of gates ... are simulated due to
//	       exorbitant run time of the random-simulation method")
//	%Dif — accuracy difference between the two methods over sampled nodes
//	SPT  — signal probability computation time (s), the design-flow cost the
//	       paper's method leverages
//	ISP  — speedup including SP time: SimT / (SysT + SPT)
//	ESP  — speedup excluding SP time: SimT / SysT
//
// %Dif is defined as the mean absolute difference in P_sensitized between
// EPP and random simulation over the sampled nodes, normalized by the mean
// random-simulation value (×100). EXPERIMENTS.md records this definition
// alongside the measured values.
package table2

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/circuitio"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/sigprob"
	"repro/internal/simulate"
)

// Baseline selects the random-simulation implementation timed as SimT.
type Baseline int

const (
	// BaselineNaive is the paper-era comparator: scalar evaluation, one
	// random vector at a time, full-circuit faulty re-simulation. This is
	// what the paper's SimT column measured and the default.
	BaselineNaive Baseline = iota
	// BaselineBitParallel is our strengthened comparator (64-way
	// bit-parallel, cone-limited re-simulation), reported as an ablation:
	// it shows how much of the paper's speedup survives against a
	// competently engineered simulator.
	BaselineBitParallel
)

// String names the baseline.
func (b Baseline) String() string {
	switch b {
	case BaselineNaive:
		return "naive"
	case BaselineBitParallel:
		return "bit-parallel"
	}
	return fmt.Sprintf("Baseline(%d)", int(b))
}

// Config controls one Table 2 row measurement.
type Config struct {
	// Baseline selects the random-simulation comparator (default naive, as
	// in the paper).
	Baseline Baseline
	// MCVectors is the number of random vectors per sampled node for the
	// baseline (default 10000, the classical setting).
	MCVectors int
	// SampleNodes bounds how many error sites the random-simulation baseline
	// actually simulates; the total SimT is extrapolated linearly (default
	// 200, 0 = all nodes).
	SampleNodes int
	// SPVectors is the vector count for Monte Carlo signal probability
	// (default 100000).
	SPVectors int
	// Seed fixes all randomized components.
	Seed uint64
	// Workers for the EPP sweep (default 1: single-threaded, matching the
	// paper's single-CPU runtime comparison).
	Workers int
}

func (c *Config) setDefaults() {
	if c.MCVectors <= 0 {
		c.MCVectors = 10000
	}
	if c.SampleNodes < 0 {
		c.SampleNodes = 0
	}
	if c.SampleNodes == 0 {
		c.SampleNodes = 200
	}
	if c.SPVectors <= 0 {
		c.SPVectors = 100000
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
}

// Row is one measured line of the Table 2 reproduction.
type Row struct {
	Circuit string
	Nodes   int
	Sampled int

	SysTms float64 // EPP all-nodes runtime, milliseconds
	SimTs  float64 // random simulation all-nodes runtime (extrapolated), seconds
	DifPct float64 // accuracy difference, percent
	SPTs   float64 // signal probability (Monte Carlo) runtime, seconds
	ISP    float64 // speedup including SP time
	ESP    float64 // speedup excluding SP time
}

// Run measures one circuit.
func Run(c *netlist.Circuit, cfg Config) (Row, error) {
	cfg.setDefaults()
	row := Row{Circuit: c.Name, Nodes: c.N()}

	// --- SPT: Monte Carlo signal probability (the leveraged flow step).
	spStart := time.Now()
	sp := sigprob.MonteCarlo(c, sigprob.Config{Vectors: cfg.SPVectors, Seed: cfg.Seed})
	row.SPTs = time.Since(spStart).Seconds()

	// --- SysT: the EPP analysis over every node, on the production
	// epp-batch engine. It runs to completion: a mid-measurement abort
	// would corrupt the row (RunProfiles honors ctx between circuits).
	eng, err := engine.Lookup("epp-batch")
	if err != nil {
		return Row{}, err
	}
	epp := make([]float64, c.N())
	sysStart := time.Now()
	if err := eng.PSensitizedAll(context.Background(), &engine.Request{Circuit: c, SP: sp, Workers: cfg.Workers}, epp); err != nil {
		return Row{}, err
	}
	row.SysTms = float64(time.Since(sysStart).Microseconds()) / 1000

	// --- SimT + %Dif: random simulation on a node sample, extrapolated.
	sites := sampleSites(c.N(), cfg.SampleNodes)
	row.Sampled = len(sites)
	mcOpt := simulate.MCOptions{Vectors: cfg.MCVectors, Seed: cfg.Seed + 1}
	var baseline interface {
		EPP(netlist.ID) simulate.MCResult
	}
	if cfg.Baseline == BaselineBitParallel {
		baseline = simulate.NewMonteCarlo(c, mcOpt)
	} else {
		baseline = simulate.NewNaive(c, mcOpt)
	}
	simStart := time.Now()
	sumAbs, sumMC := 0.0, 0.0
	for _, s := range sites {
		m := baseline.EPP(s).PSensitized
		sumAbs += math.Abs(epp[s] - m)
		sumMC += m
	}
	simElapsed := time.Since(simStart).Seconds()
	row.SimTs = simElapsed * float64(c.N()) / float64(len(sites))
	if sumMC > 0 {
		row.DifPct = 100 * sumAbs / sumMC
	}

	// --- Speedups.
	sysSeconds := row.SysTms / 1000
	if sysSeconds > 0 {
		row.ESP = row.SimTs / sysSeconds
		row.ISP = row.SimTs / (sysSeconds + row.SPTs)
	}
	return row, nil
}

// sampleSites picks up to k node IDs evenly spaced over [0, n): a
// deterministic, stratified sample covering all circuit depths.
func sampleSites(n, k int) []netlist.ID {
	if k <= 0 || k >= n {
		out := make([]netlist.ID, n)
		for i := range out {
			out[i] = netlist.ID(i)
		}
		return out
	}
	out := make([]netlist.ID, 0, k)
	step := float64(n) / float64(k)
	for i := 0; i < k; i++ {
		out = append(out, netlist.ID(int(float64(i)*step)))
	}
	return out
}

// RunProfiles measures the named ISCAS'89-profile circuits (nil = all
// eleven of the paper's Table 2) and returns the rows in order. If progress
// is non-nil it is called with each row as soon as it is measured, so long
// runs can stream results. Cancellation and deadlines on ctx are honored at
// circuit granularity: the timed kernels themselves run to completion (a
// mid-measurement abort would corrupt the row), but no new circuit starts
// once ctx is done.
func RunProfiles(ctx context.Context, names []string, cfg Config, progress func(Row)) ([]Row, error) {
	if names == nil {
		for _, p := range gen.ISCAS89 {
			names = append(names, p.Name)
		}
	}
	rows := make([]Row, 0, len(names))
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		// The shared parse-once path: a profile already loaded by another
		// mode of the same invocation is reused, not regenerated.
		c, err := circuitio.Load(circuitio.Source{Profile: name})
		if err != nil {
			return nil, err
		}
		row, err := Run(c, cfg)
		if err != nil {
			return nil, fmt.Errorf("table2: %s: %w", name, err)
		}
		if progress != nil {
			progress(row)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Render lays the rows out in the paper's column order, appending the
// paper-style averages row.
func Render(rows []Row) *report.Table {
	t := report.NewTable(
		"Table 2 reproduction: EPP approach vs. random simulation",
		"Circuit", "SysT(ms)", "SimT(s)", "%Dif", "SPT(s)", "ISP", "ESP",
	)
	var sumSys, sumSim, sumDif, sumSPT, sumISP, sumESP float64
	for _, r := range rows {
		t.AddRowf(r.Circuit, r.SysTms, r.SimTs, r.DifPct, r.SPTs, r.ISP, r.ESP)
		sumSys += r.SysTms
		sumSim += r.SimTs
		sumDif += r.DifPct
		sumSPT += r.SPTs
		sumISP += r.ISP
		sumESP += r.ESP
	}
	n := float64(len(rows))
	if n > 0 {
		t.AddRowf("average", sumSys/n, sumSim/n, sumDif/n, sumSPT/n, sumISP/n, sumESP/n)
	}
	t.AddNote("SysT: EPP all-nodes runtime; SimT: random simulation extrapolated to all nodes")
	t.AddNote("ISP = SimT/(SysT+SPT), ESP = SimT/SysT; %%Dif = mean |EPP-MC| / mean MC × 100")
	return t
}
