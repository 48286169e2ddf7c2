package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sigprob"
)

// batchWidths are the lane counts the batched engine is cross-checked at:
// the degenerate scalar-equivalent width, small widths that force many
// partial batches, and the full mask width.
var batchWidths = []int{1, 4, 8, 64}

// TestBatchMatchesScalar is the batched engine's conformance suite: on
// random generated circuits, for every rule set and every batch width, the
// batched P_sensitized of every site and every per-output state must be
// bit-identical to the scalar Analyzer (the executable specification).
// Both engines apply the same rule arithmetic in the same fanin order and
// fold the output misses in the same canonical ID order, so there is no
// legitimate divergence at all.
func TestBatchMatchesScalar(t *testing.T) {
	rules := []RuleSet{RulesClosedForm, RulesPairwise, RulesNoPolarity}
	for seed := uint64(0); seed < 6; seed++ {
		c := gen.SmallRandomSequential(seed + 40)
		sp := sigprob.Topological(c, sigprob.Config{})
		for _, rs := range rules {
			scalar := MustNew(c, sp, Options{Rules: rs})
			want := make([]Result, c.N())
			for id := 0; id < c.N(); id++ {
				want[id] = scalar.EPP(netlist.ID(id))
			}
			for _, width := range batchWidths {
				eng := NewBatch(MustNew(c, sp, Options{Rules: rs}), width)
				got := make([]Result, c.N())
				sites := make([]netlist.ID, 0, width)
				for lo := 0; lo < c.N(); lo += width {
					hi := lo + width
					if hi > c.N() {
						hi = c.N()
					}
					sites = sites[:0]
					for id := lo; id < hi; id++ {
						sites = append(sites, netlist.ID(id))
					}
					eng.EPPBatch(sites, got[lo:hi])
				}
				for id := 0; id < c.N(); id++ {
					g, w := got[id], want[id]
					if math.Float64bits(g.PSensitized) != math.Float64bits(w.PSensitized) {
						t.Fatalf("seed %d rules %v width %d site %d: batched %v, scalar %v (must be bit-identical)",
							seed, rs, width, id, g.PSensitized, w.PSensitized)
					}
					if g.ConeSize != w.ConeSize {
						t.Fatalf("seed %d rules %v width %d site %d: cone size %d, scalar %d",
							seed, rs, width, id, g.ConeSize, w.ConeSize)
					}
					if len(g.Outputs) != len(w.Outputs) {
						t.Fatalf("seed %d rules %v width %d site %d: %d outputs, scalar %d",
							seed, rs, width, id, len(g.Outputs), len(w.Outputs))
					}
					// Both engines emit outputs in a valid topological
					// order, but within-level tie-breaking differs (single-
					// root vs multi-root DFS discovery), so match by node.
					wantState := make(map[netlist.ID]logic.Prob4, len(w.Outputs))
					for _, o := range w.Outputs {
						wantState[o.Output] = o.State
					}
					for i, o := range g.Outputs {
						ws, ok := wantState[o.Output]
						if !ok {
							t.Fatalf("seed %d rules %v width %d site %d output %d: node %d not in scalar outputs",
								seed, rs, width, id, i, o.Output)
						}
						for s := range o.State {
							if math.Float64bits(o.State[s]) != math.Float64bits(ws[s]) {
								t.Fatalf("seed %d rules %v width %d site %d output node %d: state %v, scalar %v",
									seed, rs, width, id, o.Output, o.State, ws)
							}
						}
					}
				}
			}
		}
	}
}

// TestBatchPSensitizedMatchesEPPBatch: the allocation-free P_sensitized
// entry point and the full-result entry point must agree exactly.
func TestBatchPSensitizedMatchesEPPBatch(t *testing.T) {
	c := gen.SmallRandomSequential(99)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	all := a.PSensitizedAll()
	res := a.AllSites()
	for id := 0; id < c.N(); id++ {
		if all[id] != res[id].PSensitized {
			t.Fatalf("site %d: PSensitizedAll %v, AllSites %v", id, all[id], res[id].PSensitized)
		}
	}
}

// TestBatchPartialAndRepeatedBatches: a batch narrower than the width, and
// re-use of one engine across many batches, must not leak state between
// passes (scratch discipline).
func TestBatchPartialAndRepeatedBatches(t *testing.T) {
	c := gen.SmallRandomSequential(7)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	eng := NewBatch(a, 8)
	want := make([]float64, c.N())
	for id := 0; id < c.N(); id++ {
		want[id] = a.EPP(netlist.ID(id)).PSensitized
	}
	// Singleton batches through a width-8 engine, twice over (stale seeds
	// and masks from previous passes must be invisible).
	for pass := 0; pass < 2; pass++ {
		var out [1]float64
		for id := 0; id < c.N(); id++ {
			eng.PSensitizedBatch([]netlist.ID{netlist.ID(id)}, out[:])
			if math.Float64bits(out[0]) != math.Float64bits(want[id]) {
				t.Fatalf("pass %d site %d: batched %v, scalar %v (must be bit-identical)", pass, id, out[0], want[id])
			}
		}
	}
}

// TestBatchWidthClamp: constructor clamps out-of-range widths.
func TestBatchWidthClamp(t *testing.T) {
	c := gen.SmallRandomSequential(1)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	if w := NewBatch(a, 0).Width(); w != 1 {
		t.Errorf("width 0 clamped to %d, want 1", w)
	}
	if w := NewBatch(a, 1000).Width(); w != MaxBatchWidth {
		t.Errorf("width 1000 clamped to %d, want %d", w, MaxBatchWidth)
	}
}

// TestBatchPackingInvariance: the batched engine must produce bit-identical
// results for ANY site order and ANY packing of sites into batches — the
// property that lets the cone-locality scheduler reorder the all-sites
// sweep freely. Exercised for every rule set and the full width ladder,
// against the ascending-ID width-64 packing as the reference, with results
// additionally cross-checked against the scalar engine to 1e-12.
func TestBatchPackingInvariance(t *testing.T) {
	rules := []RuleSet{RulesClosedForm, RulesPairwise, RulesNoPolarity}
	for seed := uint64(0); seed < 3; seed++ {
		c := gen.SmallRandomSequential(seed + 70)
		sp := sigprob.Topological(c, sigprob.Config{})
		n := c.N()
		for _, rs := range rules {
			// Reference: ascending IDs, width 64.
			ref := make([]float64, n)
			refEng := NewBatch(MustNew(c, sp, Options{Rules: rs}), 64)
			sites := make([]netlist.ID, 0, 64)
			for lo := 0; lo < n; lo += 64 {
				hi := min(lo+64, n)
				sites = sites[:0]
				for id := lo; id < hi; id++ {
					sites = append(sites, netlist.ID(id))
				}
				refEng.PSensitizedBatch(sites, ref[lo:hi])
			}
			scalar := MustNew(c, sp, Options{Rules: rs})

			// Shuffled site orders at several widths, deterministic in seed.
			rng := rand.New(rand.NewPCG(seed, 1234))
			for _, width := range batchWidths {
				perm := rng.Perm(n)
				eng := NewBatch(MustNew(c, sp, Options{Rules: rs}), width)
				got := make([]float64, n)
				tmp := make([]float64, width)
				for lo := 0; lo < n; lo += width {
					hi := min(lo+width, n)
					sites = sites[:0]
					for _, p := range perm[lo:hi] {
						sites = append(sites, netlist.ID(p))
					}
					eng.PSensitizedBatch(sites, tmp[:hi-lo])
					for i, site := range sites {
						got[site] = tmp[i]
					}
				}
				for id := 0; id < n; id++ {
					if got[id] != ref[id] {
						t.Fatalf("seed %d rules %v width %d site %d: shuffled packing %v != reference %v (must be bit-identical)",
							seed, rs, width, id, got[id], ref[id])
					}
					if d := math.Abs(got[id] - scalar.EPP(netlist.ID(id)).PSensitized); d > 1e-12 {
						t.Fatalf("seed %d rules %v width %d site %d: |batch - scalar| = %g > 1e-12",
							seed, rs, width, id, d)
					}
				}
			}
		}
	}
}

// TestAllSitesUsesSchedule: the all-sites entry points sweep the
// cone-locality schedule yet index results by node ID, bit-equal to an
// explicit ID-ordered reference loop.
func TestAllSitesUsesSchedule(t *testing.T) {
	c := gen.SmallRandomSequential(31)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	s := a.Schedule()
	if s.Len() != c.N() {
		t.Fatalf("schedule covers %d sites, want %d", s.Len(), c.N())
	}
	if s != a.Clone().Schedule() {
		t.Error("Clone does not share the schedule")
	}
	got := a.PSensitizedAll()
	ref := make([]float64, c.N())
	eng := NewBatch(MustNew(c, sp, Options{}), DefaultBatchWidth)
	sites := make([]netlist.ID, 0, DefaultBatchWidth)
	for lo := 0; lo < c.N(); lo += DefaultBatchWidth {
		hi := min(lo+DefaultBatchWidth, c.N())
		sites = sites[:0]
		for id := lo; id < hi; id++ {
			sites = append(sites, netlist.ID(id))
		}
		eng.PSensitizedBatch(sites, ref[lo:hi])
	}
	for id := range ref {
		if got[id] != ref[id] {
			t.Fatalf("site %d: scheduled sweep %v != ID-ordered sweep %v", id, got[id], ref[id])
		}
	}
	swept, nsites := a.Batch().Counters()
	if nsites != int64(c.N()) || swept <= 0 {
		t.Fatalf("counters = (%d swept, %d sites), want sites == %d", swept, nsites, c.N())
	}
	a.Batch().ResetCounters()
	if sw, si := a.Batch().Counters(); sw != 0 || si != 0 {
		t.Fatalf("ResetCounters left (%d, %d)", sw, si)
	}
}

// TestBatchInvalidSiteLeavesNoState: a batch naming an out-of-range site
// panics before touching any scratch, so the next valid batch on the same
// engine is bit-identical to that batch on a fresh engine.
func TestBatchInvalidSiteLeavesNoState(t *testing.T) {
	c := gen.SmallRandomSequential(5)
	sp := sigprob.Topological(c, sigprob.Config{})
	n := c.N()
	eng := NewBatch(MustNew(c, sp, Options{}), 8)
	// Warm the scratch with a valid batch first, so stale state would show.
	warm := []netlist.ID{0, netlist.ID(n / 2), netlist.ID(n - 1)}
	eng.PSensitizedBatch(warm, make([]float64, len(warm)))

	bad := netlist.ID(n + 3)
	func() {
		defer func() {
			want := fmt.Sprintf("core: batch: invalid site %d", bad)
			if r := recover(); r != want {
				t.Fatalf("panic = %v, want %q", r, want)
			}
		}()
		eng.PSensitizedBatch([]netlist.ID{1, 2, bad, 3}, make([]float64, 4))
	}()

	sites := []netlist.ID{1, 2, 3, netlist.ID(n / 3), netlist.ID(n - 2)}
	got := make([]float64, len(sites))
	eng.PSensitizedBatch(sites, got)
	want := make([]float64, len(sites))
	NewBatch(MustNew(c, sp, Options{}), 8).PSensitizedBatch(sites, want)
	for i, site := range sites {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("site %d after invalid batch: %v, fresh engine %v", site, got[i], want[i])
		}
	}
}
