// Frame-unrolled batched Monte Carlo kernel for the multi-cycle detection
// probability, with per-frame exact sweep masks and per-frame detection
// counters.

package simulate

import (
	"context"
	"math"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// MCSeqBatch is the frame-unrolled batched Monte Carlo estimator of the
// multi-cycle detection probability: the same two-machine fault-injection
// semantics as Sequential (an SEU complements the error site during the
// strike cycle; corrupted flip-flop state carries the error into subsequent
// cycles; detection means a primary output differed in any frame), with the
// good-machine work shared across all error sites exactly as MCBatch shares
// it for the single-cycle estimate.
//
// The per-site Sequential estimator re-runs the full good trajectory once
// per site per word — O(sites × words × frames) full-circuit simulations
// where O(words × frames) suffices, because the good machine depends only on
// the vectors. MCSeqBatch inverts the loops: the outer loop claims 64-vector
// words from an atomic cursor, each word costs exactly one full-circuit good
// simulation per frame (the whole good trajectory is recorded), and the
// inner loop re-simulates every site group's divergence against it:
//
//   - Frame 0 (the strike cycle) sweeps the group's combinational strike
//     cone with the site flips, exactly as MCBatch — but detection counts
//     primary outputs only, since flip-flop captures are carried state here,
//     not detections.
//
//   - At each clock edge the carried divergence is captured: for every
//     flip-flop the group's error can ever reach, the faulty D-input word is
//     latched per lane (equal to the good D value wherever the lane did not
//     diverge), mirroring Sequential's atomic edge.
//
//   - Frame k >= 1 sweeps its exact reachable cone: the combinational
//     forward cone of the flip-flops a lane's divergence can reach within k
//     clock edges, precomputed per (group, frame) with per-member lane
//     masks. Early frames of deep flip-flop pipelines therefore sweep only
//     the stages the error can actually have reached, not the full
//     frame-budget superset; once the carried set stops growing the later
//     frames share one sweep structure.
//
// Detection is counted per frame: detected trials (a primary output
// differed in any frame) and later-frame detections (frames >= 1) are
// folded per site into SeqResult.Detected / SeqResult.DetectedLater, and
// FrameDetected exposes the per-frame counters — all integers summed in
// canonical site/frame order, which is what lets the latch-window-weighted
// composition (see SeqResult) stay bit-exact and worker-invariant.
//
// Faulty evaluation per lane is bitwise identical to the two-machine
// simulation over the full circuit (values outside the swept cone equal the
// good machine's by construction), so per-site detection counts — and
// therefore every SeqResult — are independent of the grouping, identical at
// any worker count, and bit-exact against a per-site Sequential run in the
// shared-vector regime (SeqOptions.SharedVectors).
//
// Vectors follow the multi-cycle shared-stream contract: one stream per
// 64-vector word, seeded by (Seed, word index) via wordSeed, drawing first
// the initial flip-flop state words (in Circuit.FFs order) and then each
// frame's primary-input words (in Circuit.PIs order). Sites that reach no
// observation point (ObsSignatures == 0) are excluded from the lane groups
// entirely: a site that cannot even reach a flip-flop D input can never be
// detected in any frame.
//
// An MCSeqBatch may be reused for repeated PDetectAll calls but is not safe
// for concurrent use.
type MCSeqBatch struct {
	c      *netlist.Circuit
	opt    MCOptions
	frames int

	groups     []mcSeqGroup
	maxMembers int // largest member list over groups and frames
	maxFFs     int // largest carried-FF set, sizes the per-lane state scratch
	skipped    int // sites excluded as unobservable
	isPO       []bool

	frameDet []int64 // per-frame detection counters of the last PDetectAll
	stats    MCStats
}

// mcSeqGroup extends the strike-frame group with the sequential structures:
// the flip-flops that can ever carry the group's divergence (with per-FF
// lane masks and D inputs) and, per frame >= 1, the exact combinational
// sweep of the flip-flops reachable within that many clock edges.
type mcSeqGroup struct {
	mcGroup // frame 0: sites, strike-cone members, lane masks, site lanes

	ffIDs  []netlist.ID // flip-flops reachable by the group's divergence
	ffMask []uint64     // per ffIDs entry: lanes whose divergence can ever reach it
	ffD    []netlist.ID // D input (fanin[0]) of each carried flip-flop

	// frames[k-1] is the sweep of frame k: the combinational forward cone
	// of the flip-flops a lane can reach within k clock edges. Lane masks
	// only grow with k, so later entries may alias earlier ones once the
	// carried set reaches its fixpoint.
	frames []mcSeqFrame
}

// mcSeqFrame is one frame's exact faulty sweep: members in combinational
// topological order, per-member lane masks, and for flip-flop members the
// index of their carried state in the group's ffIDs.
type mcSeqFrame struct {
	members []netlist.ID
	mask    []uint64
	ffPos   []int32
}

// NewMCSeqBatch builds the frame-unrolled batched estimator for circuit c
// with the given frame budget (clamped to >= 1). The precomputed structures
// are shared read-only by all PDetectAll workers.
func NewMCSeqBatch(c *netlist.Circuit, opt MCOptions, frames int) *MCSeqBatch {
	opt.setDefaults()
	if frames < 1 {
		frames = 1
	}
	m := &MCSeqBatch{c: c, opt: opt, frames: frames}
	base, maxMembers, skipped := buildMCGroups(c)
	m.maxMembers = maxMembers
	m.skipped = skipped
	m.isPO = make([]bool, c.N())
	for _, po := range c.POs {
		m.isPO[po] = true
	}

	m.groups = make([]mcSeqGroup, len(base))
	for gi := range base {
		m.groups[gi].mcGroup = base[gi]
	}
	if frames == 1 {
		// A single-frame budget never runs the capture or frames>=1 sweeps,
		// so the sequential closure structures would be dead weight —
		// construction then costs the same as MCBatch's.
		return m
	}

	n := c.N()
	mask := make([]uint64, n)  // sequential lane-closure state
	smask := make([]uint64, n) // per-frame on-path lane masks (scratch)
	dmask := make([]uint64, len(c.FFs))
	ffLocal := make([]int32, n) // FF id -> index into the group's ffIDs
	ffSeen := make([]int32, n)  // group stamp: FF already in the group's ffIDs
	for i := range ffSeen {
		ffSeen[i] = -1
	}
	topo := c.Topo()
	kinds := c.Kinds()
	fiIdx, fiArr := c.FaninCSR()

	for gi := range m.groups {
		g := &m.groups[gi]
		g.frames = make([]mcSeqFrame, 0, frames-1)

		// Lane closure over the sequential graph: after edge step k,
		// mask[id] bit l is set iff lane l's divergence can reach id within
		// k clock edges. One combinational topological pass per iteration,
		// then a clock-edge step that pushes each flip-flop's D-input mask
		// onto its output. The per-edge states are exactly the frame sweeps:
		// frame k's faulty sweep covers the combinational cone of the
		// flip-flops carrying lanes after k edges — the exact reachable set
		// for that frame, not the frame-budget superset. Masks only
		// accumulate, so once no flip-flop gains a lane the remaining frames
		// share the last sweep structure.
		for i := range mask {
			mask[i] = 0
		}
		for lane, site := range g.sites {
			mask[site] |= 1 << uint(lane)
		}
		for edge := 1; edge < frames; edge++ {
			for _, id := range topo {
				if kinds[id].IsGate() {
					mk := mask[id]
					for _, f := range fiArr[fiIdx[id]:fiIdx[id+1]] {
						mk |= mask[f]
					}
					mask[id] = mk
				}
			}
			// Atomic clock edge: read every D mask before writing any FF
			// (mirroring the simulator's edge), so a lane crosses exactly
			// one flip-flop stage per step and mask stays the exact
			// <= edge reach — non-atomic updates would let lanes jump whole
			// FF chains in one step and inflate the early frames' sweeps.
			changed := false
			for i, ff := range c.FFs {
				dmask[i] = mask[fiArr[fiIdx[ff]]]
			}
			for i, ff := range c.FFs {
				d := fiArr[fiIdx[ff]]
				if add := dmask[i] &^ mask[ff]; add != 0 {
					// Membership needs its own stamp: an FF that is itself an
					// error site has a nonzero seeded mask before it ever
					// captures anything.
					if ffSeen[ff] != int32(gi) {
						ffSeen[ff] = int32(gi)
						ffLocal[ff] = int32(len(g.ffIDs))
						g.ffIDs = append(g.ffIDs, ff)
						g.ffD = append(g.ffD, d)
					}
					mask[ff] |= add
					changed = true
				}
			}

			// Frame `edge` sweep: the combinational cone of the currently
			// carried flip-flops. Filtering the circuit topological order
			// keeps it a valid evaluation order.
			var fr mcSeqFrame
			for i := range smask {
				smask[i] = 0
			}
			for _, ff := range g.ffIDs {
				smask[ff] = mask[ff]
			}
			for _, id := range topo {
				if kinds[id].IsGate() {
					mk := smask[id]
					for _, f := range fiArr[fiIdx[id]:fiIdx[id+1]] {
						mk |= smask[f]
					}
					smask[id] = mk
				}
				if smask[id] != 0 {
					fp := int32(-1)
					if kinds[id] == logic.DFF {
						fp = ffLocal[id]
					}
					fr.members = append(fr.members, id)
					fr.mask = append(fr.mask, smask[id])
					fr.ffPos = append(fr.ffPos, fp)
				}
			}
			g.frames = append(g.frames, fr)
			if len(fr.members) > m.maxMembers {
				m.maxMembers = len(fr.members)
			}
			if !changed {
				// Carried-lane fixpoint: every remaining frame sweeps the
				// same cone with the same masks.
				for len(g.frames) < frames-1 {
					g.frames = append(g.frames, fr)
				}
				break
			}
		}

		// Finalize the capture masks to the closure fixpoint: lanes whose
		// divergence can ever reach each carried flip-flop.
		g.ffMask = make([]uint64, len(g.ffIDs))
		for j, ff := range g.ffIDs {
			g.ffMask[j] = mask[ff]
		}
		if len(g.ffIDs) > m.maxFFs {
			m.maxFFs = len(g.ffIDs)
		}
	}
	return m
}

// Circuit returns the simulated circuit.
func (m *MCSeqBatch) Circuit() *netlist.Circuit { return m.c }

// Frames returns the frame budget.
func (m *MCSeqBatch) Frames() int { return m.frames }

// Stats returns the work counters of the most recent PDetectAll call. The
// kernel's defining invariant is GoodSims == Words × Frames: exactly one
// full-circuit good simulation per (64-vector word, frame), shared by all
// sites.
func (m *MCSeqBatch) Stats() MCStats { return m.stats }

// FrameDetected returns the per-frame detection counters of the most recent
// PDetectAll call: the returned slice, indexed by node ID, counts the trials
// in which a primary output differed during frame `frame` (0 = the strike
// cycle). A trial may be detected in several frames, so the per-frame counts
// can sum to more than SeqResult.Detected; their union is Detected and the
// union over frames >= 1 is DetectedLater. The counters are integers folded
// in canonical (site, frame) order, identical at any worker count. The
// returned slice aliases kernel state — treat it as read-only.
func (m *MCSeqBatch) FrameDetected(frame int) []int64 {
	if m.frameDet == nil || frame < 0 || frame >= m.frames {
		return nil
	}
	n := m.c.N()
	return m.frameDet[frame*n : (frame+1)*n]
}

// PDetectAll estimates the multi-cycle detection probability for every node
// of the circuit (indexed by node ID) across workers goroutines (0 =
// GOMAXPROCS). Each 64-vector word costs exactly one good simulation per
// frame shared by all sites. Cancellation of ctx is honored between word
// claims; on cancellation the partial estimate is discarded and ctx.Err()
// returned. Results are identical at any worker count.
func (m *MCSeqBatch) PDetectAll(ctx context.Context, workers int) ([]SeqResult, error) {
	words := m.opt.Words()
	n := m.c.N()
	tot := &mcTotals{
		detected: make([]int64, n),
		later:    make([]int64, n),
		frames:   make([]int64, m.frames*n),
	}
	if err := sweepWords(ctx, &m.opt, workers, m.frames, tot,
		func() wordWorker { return newMCSeqWorker(m) }); err != nil {
		return nil, err
	}
	tot.stats.Sites = int64(n)
	tot.stats.Unobservable = int64(m.skipped)
	m.stats = tot.stats
	m.frameDet = tot.frames

	trials := words * 64
	out := make([]SeqResult, n)
	for id := 0; id < n; id++ {
		p := float64(tot.detected[id]) / float64(trials)
		out[id] = SeqResult{
			Site:          netlist.ID(id),
			Frames:        m.frames,
			PDetect:       p,
			StdErr:        math.Sqrt(p * (1 - p) / float64(trials)),
			Trials:        trials,
			Detected:      int(tot.detected[id]),
			DetectedLater: int(tot.later[id]),
		}
	}
	return out, nil
}

// mcSeqWorker is the per-goroutine state of one PDetectAll sweep: a
// bit-parallel engine for the shared good trajectory, the per-frame good
// value snapshots, the lane-value scratch for faulty re-simulation, and the
// per-lane carried flip-flop state.
type mcSeqWorker struct {
	mcCounters
	m        *MCSeqBatch
	eng      *Engine
	goodBuf  []uint64 // frames × N good values, frame-major
	lanes    []uint64 // faulty lane values, member-major: lanes[i*64+lane]
	faultyFF []uint64 // carried faulty FF state: faultyFF[ffLocal*64+lane]
	pos      []int32
	stamp    []int64
	stampVal int64
	ins      []uint64
}

func newMCSeqWorker(m *MCSeqBatch) *mcSeqWorker {
	n := m.c.N()
	return &mcSeqWorker{
		mcCounters: mcCounters{
			detected: make([]int64, n),
			later:    make([]int64, n),
			frames:   make([]int64, m.frames*n),
		},
		m:        m,
		eng:      NewEngine(m.c),
		goodBuf:  make([]uint64, m.frames*n),
		lanes:    make([]uint64, m.maxMembers*mcLanes),
		faultyFF: make([]uint64, m.maxFFs*mcLanes),
		pos:      make([]int32, n),
		stamp:    make([]int64, n),
		ins:      make([]uint64, 0, 8),
	}
}

// runWord applies word w's shared vectors: the full good trajectory (one
// good simulation per frame), then per site group the frame-unrolled faulty
// sweep with flip-flop state carried across clock edges.
func (wk *mcSeqWorker) runWord(w int64) {
	m := wk.m
	c := m.c
	n := c.N()
	eng := wk.eng
	fiIdx, fiArr := eng.fiIdx, eng.fiArr
	kinds := eng.kinds

	// Good trajectory under the multi-cycle seeding contract: one stream per
	// word, initial flip-flop state first, then each frame's primary inputs.
	src := NewVectorSource(wordSeed(m.opt.Seed, w), m.opt.SourceProb)
	for _, ff := range c.FFs {
		eng.values[ff] = src.Word(ff)
	}
	for f := 0; f < m.frames; f++ {
		for _, pi := range c.PIs {
			eng.values[pi] = src.Word(pi)
		}
		eng.Run()
		copy(wk.goodBuf[f*n:(f+1)*n], eng.values)
		wk.goodSims++
		if f+1 < m.frames {
			// Clock edge: the snapshot makes the capture atomic, so FF-to-FF
			// chains shift by exactly one stage per cycle.
			good := wk.goodBuf[f*n : (f+1)*n]
			for _, ff := range c.FFs {
				eng.values[ff] = good[fiArr[fiIdx[ff]]]
			}
		}
	}
	wk.words++

	for gi := range m.groups {
		g := &m.groups[gi]
		// det unions the per-frame detection masks detF; detLater unions
		// the frames >= 1 only. The three integer counter families folded
		// from them (any-frame, later-frame, per-frame) are what the
		// latch-window-weighted composition consumes.
		var det, detLater, detF [mcLanes]uint64

		// Frame 0: strike-cone sweep with the site flips, against the frame-0
		// good values. Identical arithmetic to MCBatch, but detection counts
		// primary outputs only — flip-flop captures are carried, not counted.
		good := wk.goodBuf[:n]
		wk.stampVal++
		for i, id := range g.members {
			wk.stamp[id] = wk.stampVal
			wk.pos[id] = int32(i)
		}
		for i, id := range g.members {
			mk := g.mask[i]
			base := i * mcLanes
			for mm := mk; mm != 0; mm &= mm - 1 {
				l := bits.TrailingZeros64(mm)
				var v uint64
				if g.siteIdx[l] == int32(i) {
					// Lane l's error site: the SEU forces the complement of
					// the good value in all 64 patterns of the strike cycle.
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
				if m.isPO[id] {
					detF[l] |= v ^ good[id]
				}
			}
			wk.laneSims += int64(bits.OnesCount64(mk))
		}
		wk.sweptMembers += int64(len(g.members))
		for l, site := range g.sites {
			det[l] |= detF[l]
			wk.frames[site] += int64(bits.OnesCount64(detF[l]))
		}
		if m.frames > 1 {
			wk.capture(g, g.mask, good)
		}

		// Frame k >= 1: sweep the exact reachable cone of that frame — the
		// combinational cone of the flip-flops a lane can reach within k
		// clock edges — against the frame's good values, divergence entering
		// only through the captured state.
		for f := 1; f < m.frames; f++ {
			fr := &g.frames[f-1]
			good := wk.goodBuf[f*n : (f+1)*n]
			wk.stampVal++
			for i, id := range fr.members {
				wk.stamp[id] = wk.stampVal
				wk.pos[id] = int32(i)
			}
			for l := range detF {
				detF[l] = 0
			}
			for i, id := range fr.members {
				mk := fr.mask[i]
				base := i * mcLanes
				if fp := fr.ffPos[i]; fp >= 0 {
					fb := int(fp) * mcLanes
					for mm := mk; mm != 0; mm &= mm - 1 {
						l := bits.TrailingZeros64(mm)
						v := wk.faultyFF[fb+l]
						wk.lanes[base+l] = v
						if m.isPO[id] {
							detF[l] |= v ^ good[id]
						}
					}
				} else {
					for mm := mk; mm != 0; mm &= mm - 1 {
						l := bits.TrailingZeros64(mm)
						wk.ins = wk.ins[:0]
						for _, fin := range fiArr[fiIdx[id]:fiIdx[id+1]] {
							if wk.stamp[fin] == wk.stampVal && fr.mask[wk.pos[fin]]>>uint(l)&1 == 1 {
								wk.ins = append(wk.ins, wk.lanes[int(wk.pos[fin])*mcLanes+l])
							} else {
								wk.ins = append(wk.ins, good[fin])
							}
						}
						v := logic.EvalWord(kinds[id], wk.ins)
						wk.lanes[base+l] = v
						if m.isPO[id] {
							detF[l] |= v ^ good[id]
						}
					}
				}
				wk.laneSims += int64(bits.OnesCount64(mk))
			}
			wk.sweptMembers += int64(len(fr.members))
			for l, site := range g.sites {
				det[l] |= detF[l]
				detLater[l] |= detF[l]
				wk.frames[f*n+int(site)] += int64(bits.OnesCount64(detF[l]))
			}
			if f+1 < m.frames {
				wk.capture(g, fr.mask, good)
			}
		}

		for l, site := range g.sites {
			wk.detected[site] += int64(bits.OnesCount64(det[l]))
			wk.later[site] += int64(bits.OnesCount64(detLater[l]))
		}
	}
}

// capture latches the carried divergence at a clock edge: for every carried
// flip-flop, the faulty D-input word per lane — the lane value where the D
// input was on-path in the frame just swept (memberMask is that frame's
// per-member mask array), the good value otherwise. Reads only lanes and
// good, writes only faultyFF, so the edge is atomic like Sequential's.
func (wk *mcSeqWorker) capture(g *mcSeqGroup, memberMask []uint64, good []uint64) {
	for j, d := range g.ffD {
		gv := good[d]
		base := j * mcLanes
		var dmask uint64
		dbase := 0
		if wk.stamp[d] == wk.stampVal {
			p := int(wk.pos[d])
			dmask = memberMask[p]
			dbase = p * mcLanes
		}
		for mm := g.ffMask[j]; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			v := gv
			if dmask>>uint(l)&1 == 1 {
				v = wk.lanes[dbase+l]
			}
			wk.faultyFF[base+l] = v
		}
	}
}
