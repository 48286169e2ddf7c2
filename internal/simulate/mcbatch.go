// Shared-good-sim batched Monte Carlo kernel for the single-cycle
// P_sensitized estimate, plus the word-major sweep setup and counter
// plumbing shared with the multi-cycle kernel.

package simulate

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sched"
	"repro/internal/sweep"
)

// mcLanes is the lane count of one Monte Carlo site group: like the batched
// EPP engine, one bit of a uint64 lane mask per site.
const mcLanes = 64

// MCStats are the work counters of one MCBatch.EPPAll sweep, the quantities
// the shared-good-sim design optimizes. GoodSims == Words is the kernel's
// defining invariant: the good machine depends only on the vectors, never on
// the error site, so exactly one full-circuit simulation is performed per
// 64-vector word — against Words × Sites for the per-site estimator.
type MCStats struct {
	Words        int64 // 64-vector words applied
	GoodSims     int64 // full-circuit good simulations (one per word)
	LaneSims     int64 // faulty node re-evaluations, summed over sites and words
	SweptMembers int64 // union-cone members visited, summed over groups and words
	Sites        int64 // error sites estimated
	Unobservable int64 // sites excluded up front (no reachable observation point)
}

// MCBatch is the batched Monte Carlo error-propagation estimator: the same
// random-vector fault-injection semantics as MonteCarlo, restructured so the
// good-machine work is shared across all error sites.
//
// The per-site estimator re-runs the full good simulation once per site per
// word — O(sites × words) full-circuit simulations where O(words) suffices,
// because the good values depend only on the vectors. MCBatch inverts the
// loops: the outer loop claims 64-vector words (one good simulation each),
// and the inner loop re-simulates every site's fault cone against those good
// values. Sites are packed into 64-lane groups by the cone-locality
// scheduler (sched.ConeLocality), so one pass over a group's union cone
// serves 64 sites and the union stays close to a single cone; sites that
// reach no observation point are excluded from the groups entirely (their
// P_sensitized is identically 0). Faulty evaluation per lane is bitwise
// identical to Engine.FaultySim over the site's own cone, so per-site
// detection counts — and therefore every MCResult — are independent of the
// grouping.
//
// Vectors are drawn from the shared-stream regime (one stream per word,
// seeded by (Seed, word index) — see MCOptions.SharedVectors): every site
// sees the same vectors, which is what makes the good sharing sound. A
// per-site MonteCarlo with SharedVectors set reproduces MCBatch's results
// bit-exactly; the estimate of each site is unchanged in distribution, but
// estimates of different sites are correlated through the shared vectors
// (see the MCOptions.SharedVectors contract).
//
// Word claims are distributed over workers by an atomic cursor. Detection
// counts are integers summed per site, so results are identical at any
// worker count. An MCBatch may be reused for repeated EPPAll calls but is
// not safe for concurrent use.
type MCBatch struct {
	c   *netlist.Circuit
	opt MCOptions

	groups     []mcGroup
	maxMembers int // largest group union cone, sizes the lane scratch
	skipped    int // sites excluded as unobservable

	stats MCStats
}

// mcGroup is one scheduled 64-lane site group with its precomputed union
// cone: members in combinational level (= topological) order, a per-member
// lane-membership mask, and per lane the member index of its error site.
type mcGroup struct {
	sites   []netlist.ID
	members []netlist.ID
	mask    []uint64
	siteIdx [mcLanes]int32
}

// NewMCBatch builds the batched estimator for circuit c: schedules all
// observable sites by cone locality and extracts one union cone per 64-site
// group. The precomputed structures are shared read-only by all EPPAll
// workers.
func NewMCBatch(c *netlist.Circuit, opt MCOptions) *MCBatch {
	opt.setDefaults()
	m := &MCBatch{c: c, opt: opt}
	m.groups, m.maxMembers, m.skipped = buildMCGroups(c)
	return m
}

// buildMCGroups schedules all observable sites by cone locality and extracts
// one strike-frame union cone per 64-site group — the shared front half of
// NewMCBatch and NewMCSeqBatch. Cones stop at flip-flop boundaries; skipped
// counts the sites excluded because no observation point is reachable.
func buildMCGroups(c *netlist.Circuit) (groups []mcGroup, maxMembers, skipped int) {
	// Observable sites only, in cone-locality order: a site whose signature
	// is zero reaches no observation point, so no vector can ever detect it.
	sig := c.ObsSignatures()
	order := sched.ConeLocality(c).Order
	sites := make([]netlist.ID, 0, len(order))
	for _, id := range order {
		if sig[id] != 0 {
			sites = append(sites, id)
		}
	}
	skipped = c.N() - len(sites)

	w := graph.NewWalker(c)
	pos := make([]int32, c.N())
	fiIdx, fiArr := c.FaninCSR()
	kinds := c.Kinds()

	for lo := 0; lo < len(sites); lo += mcLanes {
		hi := lo + mcLanes
		if hi > len(sites) {
			hi = len(sites)
		}
		gsites := sites[lo:hi]
		members := w.Union(gsites)
		g := mcGroup{
			sites:   append([]netlist.ID(nil), gsites...),
			members: append([]netlist.ID(nil), members...),
			mask:    make([]uint64, len(members)),
		}
		for i, id := range g.members {
			pos[id] = int32(i)
		}
		// Lane masks by forward propagation in topological order: a node is
		// on-path for lane l iff it is lane l's site or has an on-path fanin.
		for lane, site := range gsites {
			g.mask[pos[site]] |= 1 << uint(lane)
			g.siteIdx[lane] = pos[site]
		}
		for lane := len(gsites); lane < mcLanes; lane++ {
			g.siteIdx[lane] = -1
		}
		for i, id := range g.members {
			if !kinds[id].IsGate() {
				continue
			}
			for _, f := range fiArr[fiIdx[id]:fiIdx[id+1]] {
				if w.Contains(f) {
					g.mask[i] |= g.mask[pos[f]]
				}
			}
		}
		if len(g.members) > maxMembers {
			maxMembers = len(g.members)
		}
		groups = append(groups, g)
	}
	return groups, maxMembers, skipped
}

// Circuit returns the simulated circuit.
func (m *MCBatch) Circuit() *netlist.Circuit { return m.c }

// Stats returns the work counters of the most recent EPPAll call.
func (m *MCBatch) Stats() MCStats { return m.stats }

// wordWorker is the per-goroutine state of a word-major sweep, shared by the
// MCBatch and MCSeqBatch kernels: runWord processes one claimed 64-vector
// word; merge folds the worker's detection counts and work counters into
// the sweep totals (called under the sweep driver's mutex — at worker exit
// normally, after every word in the per-word commit regime); reset zeroes
// the local tallies between per-word merges.
type wordWorker interface {
	runWord(w int64)
	merge(tot *mcTotals)
	reset()
}

// mcTotals accumulates the integer counters of one word-major sweep. The
// detected slice is always present; the multi-cycle slices are non-nil only
// for MCSeqBatch sweeps. Every counter is an integer summed per site (and
// per frame), so the totals — and everything composed from them, including
// the latch-window-weighted estimate — are identical at any worker count.
type mcTotals struct {
	detected []int64 // per site: trials detected in any frame
	later    []int64 // per site: trials detected in a frame >= 1 (multi-cycle only)
	frames   []int64 // frame-major frames×n: trials with a PO difference in that frame (multi-cycle only)
	stats    MCStats
}

// mcCounters is the per-worker tally embedded by both kernels' workers: the
// per-site (and, for the multi-cycle kernel, per-frame) detection counts and
// the MCStats work counters, merged into the sweep totals under the driver's
// mutex.
type mcCounters struct {
	detected []int64
	later    []int64 // nil for single-cycle workers
	frames   []int64 // nil for single-cycle workers

	words, goodSims, laneSims, sweptMembers int64
}

func (c *mcCounters) merge(tot *mcTotals) {
	for id, d := range c.detected {
		tot.detected[id] += d
	}
	for id, d := range c.later {
		tot.later[id] += d
	}
	for i, d := range c.frames {
		tot.frames[i] += d
	}
	tot.stats.Words += c.words
	tot.stats.GoodSims += c.goodSims
	tot.stats.LaneSims += c.laneSims
	tot.stats.SweptMembers += c.sweptMembers
}

// reset zeroes the tallies so the worker can be merged per word (the
// OnCommit regime) instead of once at exit.
func (c *mcCounters) reset() {
	clear(c.detected)
	clear(c.later)
	clear(c.frames)
	c.words, c.goodSims, c.laneSims, c.sweptMembers = 0, 0, 0, 0
}

// seed folds a resumed run's counter snapshot into fresh totals, validating
// the shapes against the kernel's (n sites, frames frames; frames == 0
// means the single-cycle kernel, whose later/frames slices are nil).
func (tot *mcTotals) seed(c *Counters, n, frames int) error {
	if c == nil {
		return nil
	}
	if len(c.Detected) != n {
		return fmt.Errorf("simulate: resumed counters have %d sites, sweep has %d", len(c.Detected), n)
	}
	copy(tot.detected, c.Detected)
	if frames > 0 {
		if len(c.Later) != n || len(c.Frames) != frames*n {
			return fmt.Errorf("simulate: resumed counters have %d/%d multi-cycle entries, sweep wants %d/%d",
				len(c.Later), len(c.Frames), n, frames*n)
		}
		copy(tot.later, c.Later)
		copy(tot.frames, c.Frames)
	} else if len(c.Later) != 0 || len(c.Frames) != 0 {
		return fmt.Errorf("simulate: resumed counters carry multi-cycle entries for a single-cycle sweep")
	}
	tot.stats.Words = c.Words
	tot.stats.GoodSims = c.GoodSims
	tot.stats.LaneSims = c.LaneSims
	tot.stats.SweptMembers = c.SweptMembers
	return nil
}

// snapshot copies the totals into an exported Counters value — what
// MCOptions.OnCommit hands to the durability layer.
func (tot *mcTotals) snapshot() Counters {
	return Counters{
		Detected:     append([]int64(nil), tot.detected...),
		Later:        append([]int64(nil), tot.later...),
		Frames:       append([]int64(nil), tot.frames...),
		Words:        tot.stats.Words,
		GoodSims:     tot.stats.GoodSims,
		LaneSims:     tot.stats.LaneSims,
		SweptMembers: tot.stats.SweptMembers,
	}
}

// sweepWords runs one word-major sweep on the shared sweep driver — the
// common body of MCBatch.EPPAll and MCSeqBatch.PDetectAll. It validates and
// folds opt.Resume into tot (frames as for mcTotals.seed), then claims the
// pending 64-vector words as one-unit spans across workers goroutines, each
// with its own worker from newWorker; MaxNewWords is the driver's unit
// budget. OnWord progress is reported under the driver's mutex (so done
// counts are strictly increasing and calls never overlap), and per-worker
// counters are merged into tot — per word under the mutex when OnCommit is
// set (so each commit's snapshot covers exactly the committed words),
// otherwise once at worker exit. On any abort OnAbort receives the
// committed snapshot and the caller discards the partial result. All
// counters are integers summed per site (and per frame), so the totals are
// identical at any worker count and any merge regime.
func sweepWords(ctx context.Context, opt *MCOptions, workers, frames int, tot *mcTotals, newWorker func() wordWorker) error {
	words := opt.Words()
	var skip []bool
	if r := opt.Resume; r != nil {
		if len(r.Skip) != words {
			return fmt.Errorf("simulate: Resume.Skip has %d words, sweep has %d", len(r.Skip), words)
		}
		if err := tot.seed(r.Counters, len(tot.detected), frames); err != nil {
			return err
		}
		skip = r.Skip
	}
	cfg := sweep.Config[wordWorker]{
		Spans:   make([]sweep.Span, 0, words),
		Workers: workers,
		Budget:  opt.MaxNewWords,
		Unit:    "word",
		New:     func() (wordWorker, error) { return newWorker(), nil },
		Do: func(wk wordWorker, w, _ int) error {
			wk.runWord(int64(w))
			return nil
		},
	}
	for w := 0; w < words; w++ {
		if skip != nil && skip[w] {
			cfg.DoneBase++
			continue
		}
		cfg.Spans = append(cfg.Spans, sweep.Span{Lo: w, Hi: w + 1})
	}
	if opt.OnWord != nil {
		cfg.Progress = func(done int) { opt.OnWord(done, words) }
	}
	if commit := opt.OnCommit; commit != nil {
		cfg.After = func(wk wordWorker, w, _ int) error {
			wk.merge(tot)
			wk.reset()
			return commit(w, tot.snapshot)
		}
	} else {
		cfg.Exit = func(wk wordWorker) { wk.merge(tot) }
	}
	if _, err := sweep.Run(ctx, cfg); err != nil {
		if opt.OnCommit != nil && opt.OnAbort != nil {
			opt.OnAbort(tot.snapshot())
		}
		return err
	}
	return nil
}

// EPPAll estimates P_sensitized for every node of the circuit (indexed by
// node ID) across workers goroutines (0 = GOMAXPROCS). Each 64-vector word
// costs exactly one good simulation shared by all sites. Cancellation of
// ctx is honored between word claims; on cancellation the partial estimate
// is discarded and ctx.Err() returned. Results are identical at any worker
// count.
func (m *MCBatch) EPPAll(ctx context.Context, workers int) ([]MCResult, error) {
	words := m.opt.Words()
	n := m.c.N()
	tot := &mcTotals{detected: make([]int64, n)}
	if err := sweepWords(ctx, &m.opt, workers, 0, tot,
		func() wordWorker { return newMCWorker(m) }); err != nil {
		return nil, err
	}
	tot.stats.Sites = int64(n)
	tot.stats.Unobservable = int64(m.skipped)
	m.stats = tot.stats

	nv := words * 64
	out := make([]MCResult, n)
	for id := 0; id < n; id++ {
		p := float64(tot.detected[id]) / float64(nv)
		out[id] = MCResult{
			Site:        netlist.ID(id),
			PSensitized: p,
			StdErr:      math.Sqrt(p * (1 - p) / float64(nv)),
			Vectors:     nv,
			Detected:    int(tot.detected[id]),
		}
	}
	return out, nil
}

// mcWorker is the per-goroutine state of one EPPAll sweep: a bit-parallel
// engine for the shared good simulation, the lane-value scratch for faulty
// re-simulation, and local counters merged under the mutex at exit.
type mcWorker struct {
	mcCounters
	m        *MCBatch
	eng      *Engine
	lanes    []uint64 // faulty lane values, member-major: lanes[i*64+lane]
	pos      []int32  // member index of node, valid where stamp == current
	stamp    []int64  // int64: one epoch per (word, group), never wraps in practice
	stampVal int64
	ins      []uint64
}

func newMCWorker(m *MCBatch) *mcWorker {
	return &mcWorker{
		mcCounters: mcCounters{detected: make([]int64, m.c.N())},
		m:          m,
		eng:        NewEngine(m.c),
		lanes:      make([]uint64, m.maxMembers*mcLanes),
		pos:        make([]int32, m.c.N()),
		stamp:      make([]int64, m.c.N()),
		ins:        make([]uint64, 0, 8),
	}
}

// runWord applies word w's shared vectors: one good simulation, then one
// union-cone faulty sweep per site group.
func (wk *mcWorker) runWord(w int64) {
	m := wk.m
	src := NewVectorSource(wordSeed(m.opt.Seed, w), m.opt.SourceProb)
	src.Fill(wk.eng)
	wk.eng.Run()
	wk.words++
	wk.goodSims++

	c := m.c
	good := wk.eng.values
	fiIdx, fiArr := wk.eng.fiIdx, wk.eng.fiArr
	kinds := wk.eng.kinds
	for gi := range m.groups {
		g := &m.groups[gi]
		wk.stampVal++
		for i, id := range g.members {
			wk.stamp[id] = wk.stampVal
			wk.pos[id] = int32(i)
		}
		var det [mcLanes]uint64
		for i, id := range g.members {
			mk := g.mask[i]
			base := i * mcLanes
			for mm := mk; mm != 0; mm &= mm - 1 {
				l := bits.TrailingZeros64(mm)
				var v uint64
				if g.siteIdx[l] == int32(i) {
					// Lane l's error site: the SEU forces the complement of
					// the good value in all 64 patterns.
					v = ^good[id]
				} else {
					wk.ins = wk.ins[:0]
					for _, f := range fiArr[fiIdx[id]:fiIdx[id+1]] {
						if wk.stamp[f] == wk.stampVal && g.mask[wk.pos[f]]>>uint(l)&1 == 1 {
							wk.ins = append(wk.ins, wk.lanes[int(wk.pos[f])*mcLanes+l])
						} else {
							wk.ins = append(wk.ins, good[f])
						}
					}
					v = logic.EvalWord(kinds[id], wk.ins)
				}
				wk.lanes[base+l] = v
				if c.IsObserved(id) {
					det[l] |= v ^ good[id]
				}
			}
			wk.laneSims += int64(bits.OnesCount64(mk))
		}
		wk.sweptMembers += int64(len(g.members))
		for l, site := range g.sites {
			wk.detected[site] += int64(bits.OnesCount64(det[l]))
		}
	}
}

// wordSeed derives the deterministic vector-source seed of 64-vector word w
// in the shared-stream regime (see MCOptions.SharedVectors): every site —
// and every worker claiming the word — sees identical vectors for word w.
func wordSeed(seed uint64, w int64) uint64 {
	return seed ^ (uint64(w)*0x94d049bb133111eb + 0x2545f4914f6cdd1d)
}
