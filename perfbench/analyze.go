package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/sched"
	"repro/internal/ser"
)

// analyzeProfiles are the circuit shapes one analyze-cold operation
// analyzes, smallest first.
var analyzeProfiles = []string{"s9234", "s15850", "s38417"}

// scalarSamples is how many sites per circuit and operation are checked
// against the scalar EPP specification.
const scalarSamples = 12

// runAnalyze is the analyze-cold workload: library batch analysis with
// default options. An operation parses each circuit's .bench text, hashes
// it and runs ser.Run (the epp-batch engine on all cores). Work units are
// sites analyzed; a request is one operation.
func runAnalyze(e *env) (*outcome, error) {
	o := newOutcome()
	srcs := make([]string, len(analyzeProfiles))
	for i, p := range analyzeProfiles {
		var err error
		if srcs[i], err = profileBench(p, e.seed, "analyze"); err != nil {
			return nil, err
		}
	}

	// Set-up is a warm-up pass: one untraced operation. The last pass's
	// Reports are the references every operation must reproduce.
	refs := make([]*ser.Report, len(srcs))
	circuits := make([]*netlist.Circuit, len(srcs))
	err := o.timeSetups(func() error {
		for i, src := range srcs {
			c, err := bench.ParseString(src)
			if err != nil {
				return err
			}
			c.ContentHash()
			if refs[i], err = ser.Run(e.ctx, c, ser.Config{}); err != nil {
				return err
			}
			circuits[i] = c
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	scalar := make([]*core.Analyzer, len(circuits))
	for i, c := range circuits {
		if err := reportInvariants(refs[i], c); err != nil {
			return nil, err
		}
		if scalar[i], err = core.New(c, ser.SignalProbabilities(c, ser.Config{}), core.Options{}); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewPCG(e.seed, 0xa1))

	o.measure(e, func(id int, tr *Tracer) (float64, time.Duration, error) {
		var st engine.Stats
		var alloc uint64
		reps := make([]*ser.Report, len(srcs))
		sites := 0
		t0 := time.Now()
		root := tr.Begin("op", id, 0)
		for i, src := range srcs {
			s := tr.Begin("bench.parse", id, root)
			c, err := bench.ParseString(src)
			tr.End(s)
			if err != nil {
				return 0, 0, err
			}
			s = tr.Begin("netlist.content_hash", id, root)
			c.ContentHash()
			tr.End(s)
			if tr != nil {
				// The engine builds this schedule internally too; the
				// standalone call is the only way to time it from outside.
				s = tr.Begin("sched.cone_locality", id, root)
				sched.ConeLocality(c)
				tr.End(s)
			}
			if reps[i], err = estimate(e.ctx, tr, id, root, c, ser.Config{Stats: &st}, "engine.epp_batch", &alloc); err != nil {
				return 0, 0, err
			}
			sites += c.N()
		}
		tr.End(root)
		took := time.Since(t0)

		for i, rep := range reps {
			if err := sameReport(rep, refs[i]); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", analyzeProfiles[i], err)
			}
			if err := checkScalar(rep, circuits[i], scalar[i], rng); err != nil {
				return 0, 0, err
			}
		}
		if err := o.setExact("engine.swept_nodes_per_site", st.SweptNodesPerSite()); err != nil {
			return 0, 0, err
		}
		if tr != nil {
			o.sample("engine.epp_batch_alloc_mb", float64(alloc)/1e6)
		}
		return float64(sites), took, nil
	})
	return o, nil
}

// checkScalar compares a seeded sample of the Report's sites with the
// scalar EPP specification, core.Analyzer.EPP, within 1e-12.
func checkScalar(rep *ser.Report, c *netlist.Circuit, a *core.Analyzer, rng *rand.Rand) error {
	for range scalarSamples {
		id := netlist.ID(rng.IntN(c.N()))
		want := a.EPP(id).PSensitized
		if got := rep.Nodes[id].PSensitized; math.Abs(got-want) > 1e-12 {
			return fmt.Errorf("%s node %d: P_sensitized %v, scalar EPP %v", c.Name, id, got, want)
		}
	}
	return nil
}
