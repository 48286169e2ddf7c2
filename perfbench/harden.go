package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/eco"
	"repro/internal/engine"
	"repro/internal/harden"
	"repro/internal/netlist"
	"repro/internal/ser"
)

// hardenSteps is the number of gates one harden-loop operation protects.
const hardenSteps = 6

// runHarden is the harden-loop workload: greedy TMR hardening of an
// s9234-shaped circuit for hardenSteps steps, each step re-estimating the
// edited circuit through a fresh ECO cache. Work units are hardening steps;
// a request is one operation.
func runHarden(e *env) (*outcome, error) {
	o := newOutcome()
	src, err := profileBench("s9234", e.seed, "harden")
	if err != nil {
		return nil, err
	}
	optimize := func() (*harden.Result, error) {
		c, err := bench.ParseString(src)
		if err != nil {
			return nil, err
		}
		cfg := harden.OptimizeConfig{MaxSteps: hardenSteps}
		cfg.SER.ECO = eco.NewCache()
		return harden.Optimize(e.ctx, c, cfg)
	}

	// Set-up is a warm-up pass: one untraced operation. Its result, checked
	// against a cold estimate, is the reference for every operation.
	var ref *harden.Result
	if err := o.timeSetups(func() error {
		ref, err = optimize()
		return err
	}); err != nil {
		return nil, err
	}
	cold, err := ser.Run(e.ctx, ref.Circuit, ser.Config{})
	if err != nil {
		return nil, err
	}
	if len(ref.Steps) != hardenSteps {
		return nil, fmt.Errorf("hardening stopped after %d of %d steps", len(ref.Steps), hardenSteps)
	}
	if err := sameReport(ref.Report, cold); err != nil {
		return nil, fmt.Errorf("final report differs from a cold estimate: %w", err)
	}
	refHash := ref.Circuit.ContentHash()

	o.measure(e, func(id int, tr *Tracer) (float64, time.Duration, error) {
		t0 := time.Now()
		var res *harden.Result
		var err error
		if tr == nil {
			res, err = optimize()
		} else {
			res, err = tracedOptimize(e, tr, id, src)
		}
		took := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		if h := res.Circuit.ContentHash(); h != refHash {
			return 0, 0, fmt.Errorf("hardened circuit %s, want %s", h, refHash)
		}
		if err := sameReport(res.Report, cold); err != nil {
			return 0, 0, fmt.Errorf("final report differs from a cold estimate: %w", err)
		}
		var swept, hits int64
		for i, st := range res.Steps {
			if st.Picked != ref.Steps[i].Picked {
				return 0, 0, fmt.Errorf("step %d protected %d, want %d", i, st.Picked, ref.Steps[i].Picked)
			}
			swept += st.SweptSites
			hits += st.MemoHits
		}
		if err := o.setExact("harden.swept_sites_per_step", float64(swept)/float64(len(res.Steps))); err != nil {
			return 0, 0, err
		}
		if err := o.setExact("eco.memo_hit_ratio", float64(hits)/float64(hits+swept)); err != nil {
			return 0, 0, err
		}
		return float64(len(res.Steps)), took, nil
	})
	return o, nil
}

// tracedOptimize makes harden.Optimize's computation through the public
// functions it composes — harden.TMR and the SER estimate, decomposed by
// estimate — with a span around each, and returns the same Result fields
// the workload checks.
func tracedOptimize(e *env, tr *Tracer, op int, src string) (*harden.Result, error) {
	root := tr.Begin("op", op, 0)
	defer tr.End(root)
	s := tr.Begin("bench.parse", op, root)
	c, err := bench.ParseString(src)
	tr.End(s)
	if err != nil {
		return nil, err
	}
	cache := eco.NewCache()
	run := func(cc *netlist.Circuit) (*ser.Report, *engine.Stats, error) {
		st := &engine.Stats{}
		rep, err := estimate(e.ctx, tr, op, root, cc, ser.Config{ECO: cache, Stats: st}, "engine.epp_batch", nil)
		return rep, st, err
	}
	rep, _, err := run(c)
	if err != nil {
		return nil, err
	}
	res := &harden.Result{Circuit: c, Report: rep}
	kinds := c.Kinds()
	protected := map[netlist.ID]bool{}
	for len(res.Steps) < hardenSteps {
		// Optimize's greedy pick: the highest-SER unprotected original gate,
		// ties to the lowest ID.
		pick, best := netlist.InvalidID, 0.0
		for id := 0; id < c.N(); id++ {
			if protected[netlist.ID(id)] || !kinds[id].IsGate() {
				continue
			}
			if v := res.Report.Nodes[id].SERFIT; pick == netlist.InvalidID || v > best {
				pick, best = netlist.ID(id), v
			}
		}
		if pick == netlist.InvalidID {
			break
		}
		s := tr.Begin("harden.tmr", op, root)
		hardened, err := harden.TMR(res.Circuit, []netlist.ID{pick})
		tr.End(s)
		if err != nil {
			return nil, err
		}
		rep, st, err := run(hardened)
		if err != nil {
			return nil, err
		}
		protected[pick] = true
		res.Steps = append(res.Steps, harden.Step{Picked: pick, SweptSites: st.Sites.Load(), MemoHits: st.MemoHits.Load()})
		res.Circuit, res.Report = hardened, rep
	}
	return res, nil
}
