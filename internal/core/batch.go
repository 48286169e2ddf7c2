// Batched all-sites EPP kernel: core.BatchAnalyzer sweeps up to 64 error
// sites per union-cone pass with struct-of-arrays Prob4 lanes — the
// production path behind AllSites, PSensitizedAll and the epp-batch engine.

package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// MaxBatchWidth is the largest number of error sites a BatchAnalyzer can
// process per pass: one lane per bit of the uint64 on-path masks.
const MaxBatchWidth = 64

// DefaultBatchWidth is the lane count used by the AllSites entry points. It
// trades cone-extraction amortization (wider is better: consecutive sites
// have heavily overlapping cones, and the width sweep in the benchmark
// suite is monotonically faster up to the mask limit on every ISCAS
// profile) against lane-state memory — 32 bytes per union-cone node per
// lane, i.e. at most N × width × 32 B of reusable scratch per analyzer on an
// N-node circuit (see BatchAnalyzer).
const DefaultBatchWidth = MaxBatchWidth

// BatchAnalyzer is the batched implementation of the all-sites EPP kernel.
// It processes up to Width error sites per sweep: its graph.Walker extracts
// the union of the sites' cones, a per-node uint64 mask records which lanes
// (sites) each node is on-path for, and a single pass in topological order
// computes all lanes' four-valued states together. Per-lane state is stored
// struct-of-arrays (separate Pa/Pā/P0/P1 float64 arrays, lane-major within a
// node) so the inner loops touch contiguous memory. The lane arrays grow
// geometrically with the largest union cone seen, capped at one
// full-circuit block: at most N × width × 32 B per analyzer.
//
// Compared with running the scalar Analyzer once per site this amortizes,
// across the whole batch: the cone DFS and topological sort, the fanin
// index and gate-kind loads, and the gate-rule dispatch. Under the closed-form
// rules, AND/OR/NAND/NOR/NOT/BUF gates test each fanin's on-path mask once
// per node rather than once per lane, and the 2-input AND/OR/NAND/NOR gates
// that dominate mapped netlists take a branch-free closed-form path
// evaluated directly on the lane arrays.
//
// The scalar Analyzer.EPP remains the executable specification: for every
// site, the batched states are computed with the same rule arithmetic in
// the same fanin order, and both engines fold the output misses in the
// same canonical ID order, so every P_sensitized and every output state is
// bit-identical to the scalar sweep (see TestBatchMatchesScalar).
//
// A BatchAnalyzer is not safe for concurrent use; create one per goroutine
// (the epp-batch engine's workers each clone their own).
type BatchAnalyzer struct {
	a      *Analyzer
	stride int           // configured lane count (batch width)
	w      *graph.Walker // union-cone builder; w.Contains marks the current union

	// Per-node scratch, valid for members of the current union: mask holds
	// the node's on-path lanes (seeded with the lanes it is the error site
	// of, complete once the node has been swept); pos is the node's dense
	// index into the lane arrays. run rewrites both for the whole union
	// before the sweep reads them.
	mask []uint64
	pos  []int32
	obs  []netlist.ID // observed union members, in sweep order

	// Struct-of-arrays lane state, indexed pos*stride + lane.
	pa, pab, p0, p1 []float64

	// Per-lane product accumulators of the n-ary AND/OR path (see
	// naryLanes): the non-controlling value and the two error sums.
	accN, accA, accAB [MaxBatchWidth]float64

	miss []float64 // per-lane running ∏ (1 − PErr(output))
	ins  []logic.Prob4

	// Cumulative work counters since construction (or ResetCounters): how
	// many union-cone nodes were swept and how many sites were analyzed.
	// sweptNodes/sitesSwept is the batching efficiency — with perfect cone
	// overlap it approaches |cone|/width per site; with disjoint cones it
	// equals the mean cone size. See Counters.
	sweptNodes int64
	sitesSwept int64
}

// NewBatch returns a batched engine over the same circuit, signal
// probabilities and rule set as a. width is clamped to [1, MaxBatchWidth].
func NewBatch(a *Analyzer, width int) *BatchAnalyzer {
	if width < 1 {
		width = 1
	}
	if width > MaxBatchWidth {
		width = MaxBatchWidth
	}
	n := a.c.N()
	return &BatchAnalyzer{
		a:      a,
		stride: width,
		w:      graph.NewWalker(a.c),
		mask:   make([]uint64, n),
		pos:    make([]int32, n),
		miss:   make([]float64, width),
		ins:    make([]logic.Prob4, 0, 8),
	}
}

// Width returns the configured batch width (lanes per pass).
func (b *BatchAnalyzer) Width() int { return b.stride }

// Counters returns the cumulative work counters: union-cone nodes swept and
// sites analyzed since construction (or the last ResetCounters). Their ratio
// is the batching efficiency the cone-locality scheduler optimizes — swept
// nodes per site, lower is better (the per-site minimum is the mean cone
// size divided by the batch width when cones overlap perfectly).
func (b *BatchAnalyzer) Counters() (sweptNodes, sites int64) {
	return b.sweptNodes, b.sitesSwept
}

// ResetCounters zeroes the work counters.
func (b *BatchAnalyzer) ResetCounters() {
	b.sweptNodes, b.sitesSwept = 0, 0
}

// Batch returns the Analyzer's batched engine (lazily created at the
// Options.BatchWidth lane count), the engine behind the AllSites entry
// points. Callers with their own site sets (e.g. the multi-cycle analysis
// batching flip-flop sweeps) should use this rather than NewBatch so the
// O(N) scratch is shared and the configured width is honored. Like the
// Analyzer itself it is not safe for concurrent use.
func (a *Analyzer) Batch() *BatchAnalyzer {
	if a.batch == nil {
		w := a.opt.BatchWidth
		if w == 0 {
			w = DefaultBatchWidth
		}
		a.batch = NewBatch(a, w)
	}
	return a.batch
}

// PSensitizedBatch computes P_sensitized for up to Width error sites in one
// batched sweep, writing out[i] for sites[i]. len(out) must equal
// len(sites); sites must be valid node IDs. Performs no per-site heap
// allocation: the lane scratch is reused, growing geometrically (capped at
// N × width lanes) only when a larger union cone appears.
func (b *BatchAnalyzer) PSensitizedBatch(sites []netlist.ID, out []float64) {
	if len(sites) != len(out) {
		panic(fmt.Sprintf("core: PSensitizedBatch: %d sites, %d outputs", len(sites), len(out)))
	}
	if len(sites) == 0 {
		return
	}
	b.run(sites)
	for i := range sites {
		out[i] = 1 - b.miss[i]
	}
}

// EPPBatch runs the batched analysis for up to Width sites and writes one
// full Result (per-output states, cone size) per site into out. Cone sizes
// are counted here, from the union's final on-path masks, so the
// PSensitizedBatch hot path never pays for them.
func (b *BatchAnalyzer) EPPBatch(sites []netlist.ID, out []Result) {
	if len(sites) != len(out) {
		panic(fmt.Sprintf("core: EPPBatch: %d sites, %d results", len(sites), len(out)))
	}
	if len(sites) == 0 {
		return
	}
	members := b.run(sites)
	var csize [MaxBatchWidth]int
	for _, id := range members {
		for mm := b.mask[id]; mm != 0; mm &= mm - 1 {
			csize[bits.TrailingZeros64(mm)]++
		}
	}
	stride := b.stride
	for i, site := range sites {
		out[i] = Result{
			Site:        site,
			PSensitized: 1 - b.miss[i],
			ConeSize:    csize[i],
		}
	}
	// Gather per-lane output states in ascending node-ID order (b.obs is
	// sorted after the sweep; see run).
	for _, id := range b.obs {
		base := int(b.pos[id]) * stride
		for mm := b.mask[id]; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			j := base + l
			st := logic.Prob4{
				logic.SymA:    b.pa[j],
				logic.SymABar: b.pab[j],
				logic.SymZero: b.p0[j],
				logic.SymOne:  b.p1[j],
			}
			out[l].Outputs = append(out[l].Outputs, OutputEPP{Output: id, State: st})
		}
	}
}

// run executes one batched pass: validate the sites, extract the union cone
// in topological order, seed the lanes, then sweep all lanes in a single
// pass. It returns the union's members (aliasing the walker's scratch,
// valid until the next run). Every site is validated before any scratch is
// touched, and the sweep reads only scratch rewritten for this union, so a
// batch that panicked leaves nothing stale for the next one.
func (b *BatchAnalyzer) run(sites []netlist.ID) []netlist.ID {
	if len(sites) > b.stride {
		panic(fmt.Sprintf("core: batch of %d sites exceeds width %d", len(sites), b.stride))
	}
	n := b.a.c.N()
	for _, site := range sites {
		if site < 0 || int(site) >= n {
			panic(fmt.Sprintf("core: batch: invalid site %d", site))
		}
	}

	members := b.w.Union(sites)
	for i, id := range members {
		b.pos[id] = int32(i)
		b.mask[id] = 0
	}
	for lane, site := range sites {
		b.mask[site] |= 1 << uint(lane)
	}

	// Size the lane arrays for this union cone. Growth at least doubles,
	// and jumps straight to one full-circuit block once past half of it, so
	// a worker reallocates O(log N) times over a sweep, never holds more
	// than N × width lanes, and allocates at most two blocks in total.
	// Small partial sweeps still allocate small.
	stride := b.stride
	if need := len(members) * stride; cap(b.pa) < need {
		if need = max(need, 2*cap(b.pa)); 2*need > n*stride {
			need = n * stride
		}
		b.pa = make([]float64, need)
		b.pab = make([]float64, need)
		b.p0 = make([]float64, need)
		b.p1 = make([]float64, need)
	}

	for i := range sites {
		b.miss[i] = 1
	}
	b.obs = b.obs[:0]

	b.sweepUnion(members)

	// Fold each lane's per-output miss product in ascending output-ID
	// order. The order is canonical — independent of which sites share the
	// batch and of the union sweep's within-level tie-breaking — which
	// makes every batched result bit-identical under any site packing (see
	// TestBatchPackingInvariance); lane states themselves are already
	// packing-invariant because a lane's arithmetic only ever reads its own
	// lane and off-path signal probabilities. The scalar engine folds in
	// the same canonical order (see Analyzer.EPP).
	slices.Sort(b.obs)
	for _, id := range b.obs {
		base := int(b.pos[id]) * stride
		for mm := b.mask[id]; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			j := base + l
			b.miss[l] *= 1 - (b.pa[j] + b.pab[j])
		}
	}
	b.sweptNodes += int64(len(members))
	b.sitesSwept += int64(len(sites))
	return members
}

// sweepUnion is the batched step 3: one pass over the union cone in
// topological order, computing every lane's state at every node.
func (b *BatchAnalyzer) sweepUnion(members []netlist.ID) {
	a := b.a
	w := b.w
	c := a.c
	kinds := a.kinds
	fiIdx, fiArr := a.fiIdx, a.fiArr
	stride := b.stride
	closed := a.opt.Rules != RulesPairwise
	fast := a.opt.Rules == RulesClosedForm

	for i, id := range members {
		base := i * stride

		m := b.mask[id]
		sb := m // seed (error-site) lanes of this node
		kind := kinds[id]
		fs, fe := int(fiIdx[id]), int(fiIdx[id+1])
		if kind.IsGate() {
			for _, f := range fiArr[fs:fe] {
				if w.Contains(f) {
					m |= b.mask[f]
				}
			}
		}
		b.mask[id] = m

		// Error-site lanes hold the erroneous value with certainty.
		for mm := sb; mm != 0; mm &= mm - 1 {
			j := base + bits.TrailingZeros64(mm)
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = 1, 0, 0, 0
		}

		if compute := m &^ sb; compute != 0 {
			nf := fe - fs
			switch {
			case fast && nf == 2 && (kind == logic.And || kind == logic.Nand):
				b.and2Lanes(base, compute, fiArr[fs], fiArr[fs+1], kind == logic.Nand)
			case fast && nf == 2 && (kind == logic.Or || kind == logic.Nor):
				b.or2Lanes(base, compute, fiArr[fs], fiArr[fs+1], kind == logic.Nor)
			case fast && (kind == logic.And || kind == logic.Nand):
				b.naryLanes(base, compute, fiArr[fs:fe], false, kind == logic.Nand)
			case fast && (kind == logic.Or || kind == logic.Nor):
				b.naryLanes(base, compute, fiArr[fs:fe], true, kind == logic.Nor)
			case fast && (kind == logic.Buf || kind == logic.Not):
				b.unaryLanes(base, compute, fiArr[fs], kind == logic.Not)
			default:
				b.genericLanes(base, compute, kind, fiArr[fs:fe], closed)
			}
		}

		if c.IsObserved(id) && m != 0 {
			b.obs = append(b.obs, id) // miss folding happens post-sweep, in ID order
		}
	}
}

// laneIn loads fanin f's state for lane l: its on-path lane state if f is on
// path for l in this batch, the off-path signal-probability state otherwise.
func (b *BatchAnalyzer) laneIn(f netlist.ID, l int) (xa, xab, x0, x1 float64) {
	if b.w.Contains(f) && b.mask[f]>>uint(l)&1 == 1 {
		j := int(b.pos[f])*b.stride + l
		return b.pa[j], b.pab[j], b.p0[j], b.p1[j]
	}
	s := b.a.sp[f]
	return 0, 0, 1 - s, s
}

// and2Lanes is the branch-light closed-form path for 2-input AND/NAND: the
// fanin pair, their on-path flags and their off-path states are hoisted out
// of the lane loop, and the Table 1 AND rule is applied with exactly the
// arithmetic (and operation order) of the scalar andRule.
func (b *BatchAnalyzer) and2Lanes(base int, compute uint64, fx, fy netlist.ID, invert bool) {
	onX := b.w.Contains(fx)
	onY := b.w.Contains(fy)
	var mx, my uint64
	var bx, by int
	if onX {
		mx = b.mask[fx]
		bx = int(b.pos[fx]) * b.stride
	}
	if onY {
		my = b.mask[fy]
		by = int(b.pos[fy]) * b.stride
	}
	spx, spy := b.a.sp[fx], b.a.sp[fy]

	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		var xa, xab, x1 float64
		if mx>>uint(l)&1 == 1 {
			j := bx + l
			xa, xab, x1 = b.pa[j], b.pab[j], b.p1[j]
		} else {
			xa, xab, x1 = 0, 0, spx
		}
		var ya, yab, y1 float64
		if my>>uint(l)&1 == 1 {
			j := by + l
			ya, yab, y1 = b.pa[j], b.pab[j], b.p1[j]
		} else {
			ya, yab, y1 = 0, 0, spy
		}

		p1 := x1 * y1
		pa := (x1+xa)*(y1+ya) - p1
		pab := (x1+xab)*(y1+yab) - p1
		if pa < 0 {
			pa = 0
		}
		if pab < 0 {
			pab = 0
		}
		p0 := 1 - (p1 + pa + pab)
		if p0 < 0 {
			p0 = 0
		}
		j := base + l
		if invert {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pab, pa, p1, p0
		} else {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pa, pab, p0, p1
		}
	}
}

// or2Lanes is the dual of and2Lanes for 2-input OR/NOR (Table 1 OR rule).
func (b *BatchAnalyzer) or2Lanes(base int, compute uint64, fx, fy netlist.ID, invert bool) {
	onX := b.w.Contains(fx)
	onY := b.w.Contains(fy)
	var mx, my uint64
	var bx, by int
	if onX {
		mx = b.mask[fx]
		bx = int(b.pos[fx]) * b.stride
	}
	if onY {
		my = b.mask[fy]
		by = int(b.pos[fy]) * b.stride
	}
	spx, spy := b.a.sp[fx], b.a.sp[fy]

	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		var xa, xab, x0 float64
		if mx>>uint(l)&1 == 1 {
			j := bx + l
			xa, xab, x0 = b.pa[j], b.pab[j], b.p0[j]
		} else {
			xa, xab, x0 = 0, 0, 1-spx
		}
		var ya, yab, y0 float64
		if my>>uint(l)&1 == 1 {
			j := by + l
			ya, yab, y0 = b.pa[j], b.pab[j], b.p0[j]
		} else {
			ya, yab, y0 = 0, 0, 1-spy
		}

		p0 := x0 * y0
		pa := (x0+xa)*(y0+ya) - p0
		pab := (x0+xab)*(y0+yab) - p0
		if pa < 0 {
			pa = 0
		}
		if pab < 0 {
			pab = 0
		}
		p1 := 1 - (p0 + pa + pab)
		if p1 < 0 {
			p1 = 0
		}
		j := base + l
		if invert {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pab, pa, p1, p0
		} else {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pa, pab, p0, p1
		}
	}
}

// naryLanes applies the n-ary Table 1 AND rule (the OR dual when or is
// set) to the compute lanes, fanin-outer: each fanin's on-path test and
// off-path constants are evaluated once per node, then multiplied into the
// per-lane accumulators. Every lane still multiplies its fanins in
// declaration order with the arithmetic of the scalar andRule/orRule, so
// the results are bit-identical to it.
func (b *BatchAnalyzer) naryLanes(base int, compute uint64, fanin []netlist.ID, or, invert bool) {
	accN, accA, accAB := &b.accN, &b.accA, &b.accAB
	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		accN[l], accA[l], accAB[l] = 1, 1, 1
	}
	xn := b.p1 // non-controlling value: P1 for AND, P0 for OR
	if or {
		xn = b.p0
	}
	for _, f := range fanin {
		var on uint64
		if b.w.Contains(f) {
			on = compute & b.mask[f]
		}
		if on != 0 {
			fb := int(b.pos[f]) * b.stride
			for mm := on; mm != 0; mm &= mm - 1 {
				l := bits.TrailingZeros64(mm)
				j := fb + l
				x := xn[j]
				accN[l] *= x
				accA[l] *= x + b.pa[j]
				accAB[l] *= x + b.pab[j]
			}
		}
		if off := compute &^ on; off != 0 {
			// Off-path state: Pa = Pā = 0, so both error sums are x + 0,
			// computed as the scalar rule computes them.
			x := b.a.sp[f]
			if or {
				x = 1 - x
			}
			xe := x + 0
			for mm := off; mm != 0; mm &= mm - 1 {
				l := bits.TrailingZeros64(mm)
				accN[l] *= x
				accA[l] *= xe
				accAB[l] *= xe
			}
		}
	}

	// Epilogue: subtract, clamp, complete the distribution and store,
	// swapping the polarity and constant arrays for OR and inversion.
	dA, dAB, dC, dN := b.pa, b.pab, b.p0, b.p1
	if or {
		dC, dN = dN, dC
	}
	if invert {
		dA, dAB, dC, dN = dAB, dA, dN, dC
	}
	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		n := accN[l]
		pa := accA[l] - n
		pab := accAB[l] - n
		if pa < 0 {
			pa = 0
		}
		if pab < 0 {
			pab = 0
		}
		pc := 1 - (n + pa + pab)
		if pc < 0 {
			pc = 0
		}
		j := base + l
		dA[j], dAB[j], dC[j], dN[j] = pa, pab, pc, n
	}
}

// unaryLanes handles BUF (copy) and NOT (polarity/constant swap) lanes,
// testing the fanin's on-path mask once for all lanes.
func (b *BatchAnalyzer) unaryLanes(base int, compute uint64, f netlist.ID, invert bool) {
	dA, dAB, d0, d1 := b.pa, b.pab, b.p0, b.p1
	if invert {
		dA, dAB, d0, d1 = dAB, dA, d1, d0
	}
	var on uint64
	if b.w.Contains(f) {
		on = compute & b.mask[f]
	}
	if on != 0 {
		fb := int(b.pos[f]) * b.stride
		for mm := on; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			i, j := fb+l, base+l
			dA[j], dAB[j], d0[j], d1[j] = b.pa[i], b.pab[i], b.p0[i], b.p1[i]
		}
	}
	if off := compute &^ on; off != 0 {
		s := b.a.sp[f]
		x0 := 1 - s
		for mm := off; mm != 0; mm &= mm - 1 {
			j := base + bits.TrailingZeros64(mm)
			dA[j], dAB[j], d0[j], d1[j] = 0, 0, x0, s
		}
	}
}

// genericLanes is the fallback shared with the scalar sweep: gather fanin
// Prob4 states and apply the configured rule implementation. XOR/XNOR under
// every rule set, and all gates under RulesPairwise/RulesNoPolarity, take
// this path, so the batched engine inherits the scalar semantics exactly.
func (b *BatchAnalyzer) genericLanes(base int, compute uint64, kind logic.Kind, fanin []netlist.ID, closed bool) {
	noPol := b.a.opt.Rules == RulesNoPolarity
	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		b.ins = b.ins[:0]
		for _, f := range fanin {
			xa, xab, x0, x1 := b.laneIn(f, l)
			b.ins = append(b.ins, logic.Prob4{
				logic.SymA:    xa,
				logic.SymABar: xab,
				logic.SymZero: x0,
				logic.SymOne:  x1,
			})
		}
		var st logic.Prob4
		if closed {
			st = closedForm(kind, b.ins)
		} else {
			st = logic.CombineN(kind, b.ins)
		}
		if noPol {
			st[logic.SymA] += st[logic.SymABar]
			st[logic.SymABar] = 0
		}
		j := base + l
		b.pa[j], b.pab[j], b.p0[j], b.p1[j] = st[logic.SymA], st[logic.SymABar], st[logic.SymZero], st[logic.SymOne]
	}
}

// AllSites runs the EPP analysis with every node of the circuit as the error
// site ("we consider all circuit nodes as possible error sites", paper §2)
// and returns one Result per node, indexed by node ID. The analysis runs on
// the batched engine (DefaultBatchWidth sites per union-cone sweep) with
// sites packed by the cone-locality scheduler, so lanes in one batch share
// most of their union cone; because the batched engine is packing-invariant
// (see run), the results are bit-identical to any other packing. The
// multi-core sweep is the epp-batch engine (internal/engine).
func (a *Analyzer) AllSites() []Result {
	n := a.c.N()
	out := make([]Result, n)
	eng := a.Batch()
	order := a.Schedule().Order
	tmp := make([]Result, eng.stride)
	for lo := 0; lo < n; lo += eng.stride {
		hi := lo + eng.stride
		if hi > n {
			hi = n
		}
		eng.EPPBatch(order[lo:hi], tmp[:hi-lo])
		for _, r := range tmp[:hi-lo] {
			out[r.Site] = r
		}
	}
	return out
}

// PSensitizedAll computes only the P_sensitized value for every node,
// avoiding per-output result allocation. This is the kernel timed as "SysT"
// in the Table 2 reproduction; it runs on the batched engine over the
// cone-locality schedule and performs no per-site heap allocation.
func (a *Analyzer) PSensitizedAll() []float64 {
	n := a.c.N()
	out := make([]float64, n)
	eng := a.Batch()
	order := a.Schedule().Order
	tmp := make([]float64, eng.stride)
	for lo := 0; lo < n; lo += eng.stride {
		hi := lo + eng.stride
		if hi > n {
			hi = n
		}
		sites := order[lo:hi]
		eng.PSensitizedBatch(sites, tmp[:hi-lo])
		for i, site := range sites {
			out[site] = tmp[i]
		}
	}
	return out
}
