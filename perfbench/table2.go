package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/ser"
)

// table2Profiles are the mid-size circuit shapes of one table2-mc operation.
var table2Profiles = []string{"s1423", "s1488"}

// table2Frames are the frame counts each circuit is analyzed at.
var table2Frames = []int{1, 4}

// mcVectors is the Monte Carlo baseline's vector budget per site.
const mcVectors = 2048

// runTable2 is the table2-mc workload: the Monte Carlo baseline against EPP
// on mid-size circuits at 1 and 4 frames, as in the paper's Table 2. Work
// units are Monte Carlo site·vector·frames; a request is one operation.
func runTable2(e *env) (*outcome, error) {
	o := newOutcome()
	srcs := make([]string, len(table2Profiles))
	for i, p := range table2Profiles {
		var err error
		if srcs[i], err = profileBench(p, e.seed, "table2"); err != nil {
			return nil, err
		}
	}
	mcSeed := circuitSeed(e.seed, "table2-mc")

	// one runs a whole operation and returns its Reports, EPP and Monte
	// Carlo alternating, circuit by circuit and frame count by frame count.
	one := func(id int, tr *Tracer, mc *engine.Stats) ([]*ser.Report, float64, error) {
		var reps []*ser.Report
		var work float64
		root := tr.Begin("op", id, 0)
		defer tr.End(root)
		for _, src := range srcs {
			s := tr.Begin("bench.parse", id, root)
			c, err := bench.ParseString(src)
			tr.End(s)
			if err != nil {
				return nil, 0, err
			}
			for _, f := range table2Frames {
				span := "engine.epp_batch"
				if f > 1 {
					span = fmt.Sprintf("seq.detect_frames%d", f)
				}
				epp, err := estimate(e.ctx, tr, id, root, c, ser.Config{Frames: f}, span, nil)
				if err != nil {
					return nil, 0, err
				}
				cfg := ser.Config{Method: ser.MethodMonteCarlo, Frames: f, Stats: mc}
				cfg.MC.Vectors, cfg.MC.Seed = mcVectors, mcSeed
				sim, err := estimate(e.ctx, tr, id, root, c, cfg, "simulate.monte_carlo", nil)
				if err != nil {
					return nil, 0, err
				}
				reps = append(reps, epp, sim)
				work += float64(c.N() * mcVectors * f)
			}
		}
		return reps, work, nil
	}

	// Set-up is a warm-up pass: one untraced operation, whose Reports are
	// the references every operation must reproduce bit for bit.
	var refs []*ser.Report
	if err := o.timeSetups(func() error {
		var err error
		refs, _, err = one(0, nil, &engine.Stats{})
		return err
	}); err != nil {
		return nil, err
	}
	perCircuit := len(refs) / len(srcs)
	for i, src := range srcs {
		c, err := bench.ParseString(src)
		if err != nil {
			return nil, err
		}
		for _, rep := range refs[i*perCircuit : (i+1)*perCircuit] {
			if err := reportInvariants(rep, c); err != nil {
				return nil, err
			}
		}
	}

	o.measure(e, func(id int, tr *Tracer) (float64, time.Duration, error) {
		var mc engine.Stats
		t0 := time.Now()
		reps, work, err := one(id, tr, &mc)
		took := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		var dif float64
		for i, rep := range reps {
			if err := sameReport(rep, refs[i]); err != nil {
				return 0, 0, err
			}
			if i%2 == 1 {
				dif += difPct(reps[i-1], rep)
			}
		}
		if err := o.setExact("table2.epp_mc_dif_pct", dif/float64(len(reps)/2)); err != nil {
			return 0, 0, err
		}
		if err := o.setExact("simulate.good_sims_per_word", mc.GoodSimsPerWord()); err != nil {
			return 0, 0, err
		}
		return work, took, nil
	})
	return o, nil
}

// difPct is the %Dif of one EPP/Monte Carlo pair: how far the EPP total
// FIT lies from the Monte Carlo total FIT, in percent of the latter.
func difPct(epp, mc *ser.Report) float64 {
	return 100 * math.Abs(epp.TotalFIT-mc.TotalFIT) / mc.TotalFIT
}
