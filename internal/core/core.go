// Package core implements the paper's primary contribution: analytical
// computation of the error propagation probability (EPP) from any error site
// to all reachable outputs in a single topological sweep, using four-valued
// probability states with error-polarity tracking (Asadi & Tahoori,
// "An Accurate SER Estimation Method Based on Propagation Probability",
// DATE 2005, §2).
//
// For an error site n the analysis follows the paper's three steps:
//
//  1. Path construction — extract all on-path signals (forward DFS from n,
//     stopping at flip-flop boundaries).
//  2. Ordering — visit the on-path gates in combinational topological order.
//  3. EPP computation — propagate the (Pa, Pā, P0, P1) state through each
//     on-path gate using the Table 1 rules, reading plain signal
//     probabilities for off-path fanins.
//
// P_sensitized(n) = 1 − ∏_j (1 − (Pa(POj) + Pā(POj))) over reachable outputs.
//
// Two engines implement the analysis. Analyzer.EPP is the scalar reference:
// one site, one cone, one sweep — the executable specification of the
// paper's method. BatchAnalyzer is the production kernel behind AllSites,
// PSensitizedAll and the epp-batch engine: it sweeps up to MaxBatchWidth sites
// at once over the union of their cones, tracking per-node on-path lane
// membership in a uint64 mask and storing the four-valued states
// struct-of-arrays, which amortizes cone extraction, adjacency loads and
// rule dispatch across the batch (~5× on the large ISCAS'89 profiles). Both
// engines take their cones from graph.Walker (steps 1 and 2), read the
// netlist through the CSR adjacency arrays
// (netlist.Circuit.FaninCSR/FanoutCSR) and fold the per-output miss product
// in canonical ascending output-ID order, so a site's P_sensitized is a
// pure function of its cone's dataflow graph, signal probabilities and
// observation points — never of sweep scheduling or combinational levels.
//
// The batched engine is additionally packing-invariant: a site's result is
// bit-identical no matter which sites share its batch, in what order, at
// what width. Lane arithmetic never reads companion lanes. The AllSites
// entry points exploit this by packing batches from the cone-locality site
// schedule (internal/sched) — lanes in one batch share most of their union
// cone — while remaining bit-equal to any other packing; callers driving
// PSensitizedBatch/EPPBatch directly may order sites freely.
package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sched"
)

// RuleSet selects the gate-rule implementation used by the sweep.
type RuleSet int

const (
	// RulesClosedForm uses the paper's Table 1 product formulas for
	// AND/OR/NAND/NOR/NOT/BUF and the pairwise fold for XOR/XNOR. This is
	// the default and fastest implementation.
	RulesClosedForm RuleSet = iota
	// RulesPairwise folds every n-ary gate two inputs at a time through the
	// exhaustive 4×4 symbol table. Equivalent results (an ablation target),
	// useful as an executable specification.
	RulesPairwise
	// RulesNoPolarity is the ablation of the paper's key idea: after every
	// gate the a̅ mass is folded into a, i.e. all reconvergent error paths
	// are assumed to meet with an even inversion-count difference. Exact on
	// fanout-free circuits, wrong wherever opposite-polarity paths
	// reconverge (see TestPolarityAblation). Exists to quantify what the
	// four-valued polarity tracking buys.
	RulesNoPolarity
)

// String names the rule set.
func (r RuleSet) String() string {
	switch r {
	case RulesClosedForm:
		return "closed-form"
	case RulesPairwise:
		return "pairwise"
	case RulesNoPolarity:
		return "no-polarity"
	}
	return fmt.Sprintf("RuleSet(%d)", int(r))
}

// Options configure an Analyzer.
type Options struct {
	// Rules selects the propagation rule implementation.
	Rules RuleSet
	// BatchWidth sets the lane count of the batched engine behind the
	// AllSites/PSensitizedAll entry points: how many error sites share one
	// union-cone sweep. 0 means DefaultBatchWidth; values are clamped to
	// [1, MaxBatchWidth]. Width 1 degenerates to per-site sweeps (useful
	// for debugging); widths beyond ~8 mostly trade memory for diminishing
	// amortization returns.
	BatchWidth int
}

// OutputEPP records the four-valued state reaching one observation point.
type OutputEPP struct {
	Output netlist.ID
	State  logic.Prob4
}

// Result is the EPP analysis of one error site.
type Result struct {
	Site netlist.ID
	// PSensitized is the probability that the erroneous value is propagated
	// to at least one reachable output (PO or FF D input).
	PSensitized float64
	// Outputs lists the reachable observation points with their final
	// states, in topological order.
	Outputs []OutputEPP
	// ConeSize is the number of on-path signals traversed.
	ConeSize int
}

// Analyzer computes EPP over a fixed circuit and a fixed off-path signal
// probability assignment. It keeps reusable scratch so a full all-nodes
// analysis performs no per-site allocation beyond results. An Analyzer is
// not safe for concurrent use; Clone one per goroutine.
type Analyzer struct {
	c      *netlist.Circuit
	sp     []float64 // off-path signal probability per node
	opt    Options
	walker *graph.Walker // cone builder; walker.Contains marks the last EPP's cone
	state  []logic.Prob4 // on-path state, valid for members of the last cone
	ins    []logic.Prob4 // fanin gather scratch
	obs    []netlist.ID  // output-ID sort scratch for the miss-product fold

	// CSR adjacency views cached from the circuit (shared, read-only).
	fiIdx []int32
	fiArr []netlist.ID
	kinds []logic.Kind

	batch *BatchAnalyzer  // lazily created engine behind the AllSites entry points
	order *sched.Schedule // lazily computed cone-locality site schedule
}

// New returns an Analyzer for circuit c using the given signal probabilities
// (indexed by node ID; typically from sigprob.Topological or
// sigprob.MonteCarlo). The slice is read, not copied; it must not be
// modified while the Analyzer is in use.
func New(c *netlist.Circuit, sp []float64, opt Options) (*Analyzer, error) {
	if len(sp) != c.N() {
		return nil, fmt.Errorf("core: signal probability vector has %d entries for %d nodes", len(sp), c.N())
	}
	for i, p := range sp {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("core: signal probability of node %q is %v, outside [0,1]", c.NameOf(netlist.ID(i)), p)
		}
	}
	a := &Analyzer{
		c:      c,
		sp:     sp,
		opt:    opt,
		walker: graph.NewWalker(c),
		state:  make([]logic.Prob4, c.N()),
		ins:    make([]logic.Prob4, 0, 8),
		kinds:  c.Kinds(),
	}
	a.fiIdx, a.fiArr = c.FaninCSR()
	return a, nil
}

// MustNew is New for known-good arguments; it panics on error. Intended for
// examples and tests.
func MustNew(c *netlist.Circuit, sp []float64, opt Options) *Analyzer {
	a, err := New(c, sp, opt)
	if err != nil {
		panic(err)
	}
	return a
}

// Clone returns an independent Analyzer sharing the circuit and signal
// probabilities, for concurrent use from another goroutine. The clone also
// shares the (immutable) site schedule, so worker fleets do not recompute
// it.
func (a *Analyzer) Clone() *Analyzer {
	cp, err := New(a.c, a.sp, a.opt)
	if err != nil {
		panic("core: Clone: " + err.Error())
	}
	cp.order = a.order
	return cp
}

// Schedule returns the cone-locality site schedule the AllSites entry
// points sweep in (computed lazily, cached, shared with Clones). Callers
// running their own PSensitizedBatch/EPPBatch loops over all sites should
// pack batches from Schedule().Order for the same locality win; any packing
// produces bit-identical results.
func (a *Analyzer) Schedule() *sched.Schedule {
	if a.order == nil {
		a.order = sched.ConeLocality(a.c)
	}
	return a.order
}

// Circuit returns the analyzed circuit.
func (a *Analyzer) Circuit() *netlist.Circuit { return a.c }

// SignalProb returns the off-path signal probability of node id.
func (a *Analyzer) SignalProb(id netlist.ID) float64 { return a.sp[id] }

// EPP runs the three-step analysis for one error site and returns the
// per-output states and P_sensitized.
func (a *Analyzer) EPP(site netlist.ID) Result {
	if site < 0 || int(site) >= a.c.N() {
		panic(fmt.Sprintf("core: EPP: invalid site %d", site))
	}
	cone := a.walker.ForwardCone(site)
	a.sweep(&cone)

	res := Result{Site: site, ConeSize: cone.Size()}
	if len(cone.Outputs) > 0 {
		res.Outputs = make([]OutputEPP, len(cone.Outputs))
	}
	for i, out := range cone.Outputs {
		res.Outputs[i] = OutputEPP{Output: out, State: a.state[out]}
	}
	// Fold the per-output miss product in ascending output-ID order — the
	// same canonical order as the batched engine — so the result depends
	// only on the set of reachable outputs and their states, not on the
	// sweep's level ordering (see BatchAnalyzer.run).
	a.obs = append(a.obs[:0], cone.Outputs...)
	slices.Sort(a.obs)
	missAll := 1.0
	for _, out := range a.obs {
		missAll *= 1 - a.state[out].PErr()
	}
	res.PSensitized = 1 - missAll
	if len(cone.Outputs) == 0 {
		res.PSensitized = 0 // error site reaches no latching point
	}
	return res
}

// sweep performs step 3: one pass over the cone in topological order.
func (a *Analyzer) sweep(cone *graph.Cone) {
	a.state[cone.Root] = logic.ErrorSite()

	for _, id := range cone.Members[1:] {
		kind := a.kinds[id]
		a.ins = a.ins[:0]
		for _, f := range a.fiArr[a.fiIdx[id]:a.fiIdx[id+1]] {
			if cone.Contains(f) {
				a.ins = append(a.ins, a.state[f]) // on-path fanin
			} else {
				a.ins = append(a.ins, logic.FromSP(a.sp[f])) // off-path fanin
			}
		}
		var st logic.Prob4
		if a.opt.Rules == RulesPairwise {
			st = logic.CombineN(kind, a.ins)
		} else {
			st = closedForm(kind, a.ins)
		}
		if a.opt.Rules == RulesNoPolarity {
			st[logic.SymA] += st[logic.SymABar]
			st[logic.SymABar] = 0
		}
		a.state[id] = st
	}
}

// StateOf returns the four-valued state computed for node id by the most
// recent EPP call, and whether the node was on-path in that analysis.
func (a *Analyzer) StateOf(id netlist.ID) (logic.Prob4, bool) {
	if !a.walker.Contains(id) {
		return logic.Prob4{}, false
	}
	return a.state[id], true
}
