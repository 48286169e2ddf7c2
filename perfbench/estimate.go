package main

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/ser"
)

// estimate computes the SER Report of c under cfg. Untraced it is a single
// ser.Run call. Traced, it makes the same computation through the public
// function of each layer ser.Run composes — signal probabilities, the ECO
// cone hashes when a cache is attached, the engine sweep and the assembly —
// with one span around each, so their self times can be told apart. The
// two paths hand the engine the same request and return the same Report bit
// for bit; the workloads check that they do.
//
// engSpan names the span around the engine call after the layer doing the
// work inside it (engine.epp_batch, seq.detect_frames4,
// simulate.monte_carlo). The span around ser.Assemble also covers the
// signal-probability pass Assemble repeats while it validates the
// configuration. When alloc is not nil, a traced call adds the bytes the
// engine sweep allocated to it.
func estimate(ctx context.Context, tr *Tracer, op, parent int, c *netlist.Circuit, cfg ser.Config, engSpan string, alloc *uint64) (*ser.Report, error) {
	if tr == nil {
		return ser.Run(ctx, c, cfg)
	}
	eng, err := engine.Lookup(cfg.EngineName())
	if err != nil {
		return nil, err
	}
	req := engine.Request{
		Circuit: c,
		Frames:  cfg.Frames,
		Vectors: cfg.MC.Vectors,
		Seed:    cfg.MC.Seed,
		Stats:   cfg.Stats,
		Memo:    cfg.ECO,
	}
	if eng.Class() == engine.ClassAnalytic {
		s := tr.Begin("sigprob.topological", op, parent)
		req.SP = ser.SignalProbabilities(c, cfg)
		tr.End(s)
		if cfg.ECO != nil {
			s = tr.Begin("eco.cone_hashes", op, parent)
			cfg.ECO.AnalyticHashes(c, max(cfg.Frames, 1), req.SP)
			tr.End(s)
		}
	}
	psens := make([]float64, c.N())
	var before, after runtime.MemStats
	if alloc != nil {
		runtime.ReadMemStats(&before)
	}
	s := tr.Begin(engSpan, op, parent)
	err = eng.PSensitizedAll(ctx, &req, psens)
	tr.End(s)
	if alloc != nil {
		runtime.ReadMemStats(&after)
		*alloc += after.TotalAlloc - before.TotalAlloc
	}
	if err != nil {
		return nil, err
	}
	s = tr.Begin("ser.assemble", op, parent)
	defer tr.End(s)
	return ser.Assemble(c, cfg, psens)
}

// sameReport reports the first difference between two Reports, comparing
// every float by its bits.
func sameReport(got, want *ser.Report) error {
	if got.Circuit != want.Circuit || got.Engine != want.Engine || got.Method != want.Method {
		return fmt.Errorf("report header %s/%s/%v, want %s/%s/%v", got.Circuit, got.Engine, got.Method, want.Circuit, want.Engine, want.Method)
	}
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("report has %d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range got.Nodes {
		g, w := got.Nodes[i], want.Nodes[i]
		if g.ID != w.ID || g.Name != w.Name || !sameBits(g.RateFIT, w.RateFIT) || !sameBits(g.PLatched, w.PLatched) ||
			!sameBits(g.PSensitized, w.PSensitized) || !sameBits(g.SERFIT, w.SERFIT) {
			return fmt.Errorf("node %d (%s) differs: %+v, want %+v", i, w.Name, g, w)
		}
	}
	if !sameBits(got.TotalFIT, want.TotalFIT) {
		return fmt.Errorf("TotalFIT %v, want %v", got.TotalFIT, want.TotalFIT)
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// reportInvariants checks what every Report must satisfy: one entry per
// node in ID order, P_sensitized within [0, 1], and TotalFIT equal to the
// ID-order sum of the per-node SER.
func reportInvariants(rep *ser.Report, c *netlist.Circuit) error {
	if len(rep.Nodes) != c.N() {
		return fmt.Errorf("%s: report has %d nodes, circuit %d", c.Name, len(rep.Nodes), c.N())
	}
	var sum float64
	for i, n := range rep.Nodes {
		if int(n.ID) != i {
			return fmt.Errorf("%s: node %d carries ID %d", c.Name, i, n.ID)
		}
		if !(n.PSensitized >= 0 && n.PSensitized <= 1) {
			return fmt.Errorf("%s: node %d P_sensitized %v outside [0,1]", c.Name, i, n.PSensitized)
		}
		sum += n.SERFIT
	}
	if !sameBits(sum, rep.TotalFIT) {
		return fmt.Errorf("%s: TotalFIT %v is not the ID-order sum %v", c.Name, rep.TotalFIT, sum)
	}
	return nil
}
