package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sigprob"
)

// naryCircuit is a hand-made netlist that drives every closed-form lane
// path of the batched kernel: 3- and 4-input AND/NAND/OR/NOR gates,
// duplicated fanins (off-path and on-path), reconvergent gates whose fanins
// are on-path for some lanes of a batch and off-path for others, NOT/BUF
// over mixed lanes, an XOR in the same sweep, and a flip-flop boundary.
func naryCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("nary")
	a, bi, ci, d, e := b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d"), b.Input("e")
	g1 := b.And("g1", a, bi, ci)
	g2 := b.Nand("g2", a, bi, ci, d)
	g3 := b.Or("g3", bi, ci, d)
	g4 := b.Nor("g4", a, bi, ci, d)
	g5 := b.And("g5", a, a, bi) // duplicated fanin, on-path for the lane of a
	g6 := b.Or("g6", ci, d, ci)
	g7 := b.Nand("g7", g1, g3, e) // g1 and g3 are on-path for different lanes
	g8 := b.Nor("g8", g1, g2, g5, g4)
	g9 := b.And("g9", g1, g1, e) // duplicated on-path fanin
	g10 := b.Or("g10", g7, g8, g9, a)
	n1 := b.Not("n1", g8)
	b1 := b.Buf("b1", g7)
	x := b.Xor("x", g3, g4)
	ff := b.DFF("ff", g6)
	h := b.Nor("h", ff, g3, g5, g5)
	k := b.Nand("k", h, n1, b1, x)
	for _, id := range []netlist.ID{g10, k, b1, g2} {
		b.MarkOutput(id)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomNaryCircuit builds a seeded netlist of 3- to 5-input AND/NAND/OR/NOR
// gates (fanins drawn with replacement, so duplicates occur) with a sprinkle
// of NOT/BUF and flip-flops. gen.Random never repeats a fanin, which is why
// this generator exists.
func randomNaryCircuit(t *testing.T, seed uint64) *netlist.Circuit {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 77))
	b := netlist.NewBuilder(fmt.Sprintf("nary%d", seed))
	var nodes []netlist.ID
	for i := range 6 {
		nodes = append(nodes, b.Input(fmt.Sprintf("i%d", i)))
	}
	kinds := []logic.Kind{logic.And, logic.Nand, logic.Or, logic.Nor}
	for i := range 48 {
		name := fmt.Sprintf("g%d", i)
		switch r := rng.IntN(10); {
		case r == 0:
			nodes = append(nodes, b.Not(name, nodes[rng.IntN(len(nodes))]))
		case r == 1:
			nodes = append(nodes, b.Buf(name, nodes[rng.IntN(len(nodes))]))
		case r == 2 && i > 8:
			nodes = append(nodes, b.DFF(name, nodes[rng.IntN(len(nodes))]))
		default:
			fanin := make([]netlist.ID, 3+rng.IntN(3))
			for j := range fanin {
				// Favor recent nodes, so cones reconverge deeply.
				fanin[j] = nodes[len(nodes)-1-rng.IntN(min(len(nodes), 12))]
			}
			nodes = append(nodes, b.Gate(kinds[rng.IntN(len(kinds))], name, fanin...))
		}
	}
	for _, id := range nodes[len(nodes)-6:] {
		b.MarkOutput(id)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBatchNaryGatesMatchScalar is the conformance suite of the batched
// kernel's n-ary and unary lane paths: on hand-made n-ary circuits, under
// every rule set, at every batch width and under two site packings, each
// site's P_sensitized, cone size and per-output states must be
// bit-identical to the scalar Analyzer. Both topological and arbitrary
// (including exact 0 and 1) signal probabilities are used.
func TestBatchNaryGatesMatchScalar(t *testing.T) {
	circuits := []*netlist.Circuit{naryCircuit(t)}
	for seed := uint64(1); seed <= 4; seed++ {
		circuits = append(circuits, randomNaryCircuit(t, seed))
	}
	rules := []RuleSet{RulesClosedForm, RulesPairwise, RulesNoPolarity}
	for ci, c := range circuits {
		n := c.N()
		rng := rand.New(rand.NewPCG(uint64(ci), 5))
		arbitrary := make([]float64, n)
		for i := range arbitrary {
			switch i % 7 {
			case 0:
				arbitrary[i] = 0
			case 1:
				arbitrary[i] = 1
			default:
				arbitrary[i] = rng.Float64()
			}
		}
		ascending := make([]netlist.ID, n)
		for i := range ascending {
			ascending[i] = netlist.ID(i)
		}
		descending := slices.Clone(ascending)
		slices.Reverse(descending)

		for spi, sp := range [][]float64{sigprob.Topological(c, sigprob.Config{}), arbitrary} {
			for _, rs := range rules {
				scalar := MustNew(c, sp, Options{Rules: rs})
				want := make([]Result, n)
				for id := range want {
					want[id] = scalar.EPP(netlist.ID(id))
				}
				for _, width := range batchWidths {
					for oi, order := range [][]netlist.ID{ascending, descending} {
						label := fmt.Sprintf("circuit %s sp %d rules %v width %d order %d", c.Name, spi, rs, width, oi)
						checkBatchBitwise(t, label, NewBatch(MustNew(c, sp, Options{Rules: rs}), width), order, want)
					}
				}
			}
		}
	}
}

// checkBatchBitwise sweeps order through eng in width-sized batches, via
// both EPPBatch and PSensitizedBatch, and requires every result to be
// bit-identical to the scalar reference want (indexed by node ID).
func checkBatchBitwise(t *testing.T, label string, eng *BatchAnalyzer, order []netlist.ID, want []Result) {
	t.Helper()
	width := eng.Width()
	got := make([]Result, width)
	ps := make([]float64, width)
	for lo := 0; lo < len(order); lo += width {
		hi := min(lo+width, len(order))
		sites := order[lo:hi]
		eng.EPPBatch(sites, got[:len(sites)])
		eng.PSensitizedBatch(sites, ps[:len(sites)])
		for i, g := range got[:len(sites)] {
			w := want[g.Site]
			if math.Float64bits(g.PSensitized) != math.Float64bits(w.PSensitized) ||
				math.Float64bits(ps[i]) != math.Float64bits(w.PSensitized) {
				t.Fatalf("%s site %d: EPPBatch %v, PSensitizedBatch %v, scalar %v (must be bit-identical)",
					label, g.Site, g.PSensitized, ps[i], w.PSensitized)
			}
			if g.ConeSize != w.ConeSize {
				t.Fatalf("%s site %d: cone size %d, scalar %d", label, g.Site, g.ConeSize, w.ConeSize)
			}
			if len(g.Outputs) != len(w.Outputs) {
				t.Fatalf("%s site %d: %d outputs, scalar %d", label, g.Site, len(g.Outputs), len(w.Outputs))
			}
			for _, o := range g.Outputs {
				j := slices.IndexFunc(w.Outputs, func(wo OutputEPP) bool { return wo.Output == o.Output })
				if j < 0 {
					t.Fatalf("%s site %d: output node %d not in scalar outputs", label, g.Site, o.Output)
				}
				for s := range o.State {
					if math.Float64bits(o.State[s]) != math.Float64bits(w.Outputs[j].State[s]) {
						t.Fatalf("%s site %d output node %d: state %v, scalar %v",
							label, g.Site, o.Output, o.State, w.Outputs[j].State)
					}
				}
			}
		}
	}
}

// TestBatchKernelAllocationGate is the deterministic lane-scratch gate: a
// fresh full-width BatchAnalyzer sweeping the whole cone-locality schedule
// of an s9234-sized circuit must never hold lane arrays beyond N × width
// entries, and the sweep must allocate less than two full-circuit blocks of
// the four lane arrays (2 × 4 × 8 B × N × width) plus a fixed slack for the
// walker's scratch. Reallocating the arrays at exact size for every larger
// union cone costs several times that.
func TestBatchKernelAllocationGate(t *testing.T) {
	c, err := gen.ByName("s9234")
	if err != nil {
		t.Fatal(err)
	}
	a := MustNew(c, sigprob.Topological(c, sigprob.Config{}), Options{})
	order := a.Schedule().Order
	const width = DefaultBatchWidth
	eng := NewBatch(a, width)
	out := make([]float64, width)
	limit := c.N() * width
	const slack = 1 << 20

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for lo := 0; lo < len(order); lo += width {
		hi := min(lo+width, len(order))
		eng.PSensitizedBatch(order[lo:hi], out[:hi-lo])
		if m := max(cap(eng.pa), cap(eng.pab), cap(eng.p0), cap(eng.p1)); m > limit {
			t.Fatalf("after batch at %d: lane arrays hold %d entries, bound N × width = %d", lo, m, limit)
		}
	}
	runtime.ReadMemStats(&after)

	alloc := after.TotalAlloc - before.TotalAlloc
	bound := uint64(2*4*8*limit + slack)
	t.Logf("%d nodes, width %d: sweep allocated %.2f MB (bound %.2f MB)", c.N(), width, float64(alloc)/1e6, float64(bound)/1e6)
	if alloc > bound {
		t.Fatalf("sweep allocated %d bytes, bound 2 × 4 × 8 × N × width + %d = %d", alloc, slack, bound)
	}
}
