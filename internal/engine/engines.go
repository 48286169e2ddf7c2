// The five built-in Engine implementations (epp-batch, epp-scalar,
// monte-carlo, enum, bdd), all running on the shared sweep driver
// (internal/sweep, wrapped by resilience.go): atomic-cursor span
// distribution, panic isolation, checkpoint/resume, deadlines and node
// budgets.

package engine

import (
	"context"
	"fmt"

	"repro/internal/bddsp"
	"repro/internal/core"
	"repro/internal/eco"
	"repro/internal/exact"
	"repro/internal/netlist"
	"repro/internal/resume"
	"repro/internal/seq"
	"repro/internal/simulate"
)

func init() {
	Register(batchEngine{})
	Register(scalarEngine{})
	Register(mcEngine{})
	Register(enumEngine{})
	Register(bddEngine{})
}

// batchEngine is the production EPP backend: core.BatchAnalyzer sweeping up
// to 64 error sites per union-cone pass, optionally across workers.
type batchEngine struct{}

func (batchEngine) Name() string { return "epp-batch" }
func (batchEngine) Class() Class { return ClassAnalytic }

func (batchEngine) PSensitizedAll(ctx context.Context, req *Request, out []float64) error {
	if err := checkOut(req, out); err != nil {
		return err
	}
	sp := req.sp()
	c := req.Circuit
	if req.Frames > 1 {
		if req.Rules != core.RulesClosedForm {
			return fmt.Errorf("engine: Rules %v requires a single-frame analysis", req.Rules)
		}
		// Batched multi-cycle composition distributed like the single-frame
		// sweep: each worker owns a seq analyzer (per-analyzer lookahead
		// memo; not safe for concurrent use) and claims batch-width chunks.
		// PDetectBatchWeighted is packing-invariant and the composition —
		// including the latch-window strike weight — is deterministic
		// arithmetic, so results are bit-identical at any worker count; the
		// first worker reuses the prototype (newWorker is called serially
		// before the goroutines start).
		w0 := req.strikeWeight()
		proto, err := seq.New(c, sp)
		if err != nil {
			return err
		}
		chunk := proto.BatchWidth()
		var order []netlist.ID
		if !req.sweepOrdered() {
			order = proto.Schedule().Order
		}
		protoUsed := false
		return siteSweep(ctx, req, "epp-batch", sp, chunk, out,
			func() (func(lo, hi int) error, error) {
				sa := proto
				if protoUsed {
					var err error
					if sa, err = seq.New(c, sp); err != nil {
						return nil, err
					}
				}
				protoUsed = true
				sites := make([]netlist.ID, 0, chunk)
				tmp := make([]float64, chunk)
				return func(lo, hi int) error {
					batch := order
					if batch != nil {
						batch = order[lo:hi]
					} else {
						sites = sites[:0]
						for id := lo; id < hi; id++ {
							sites = append(sites, netlist.ID(id))
						}
						batch = sites
					}
					sa.PDetectBatchWeighted(batch, req.Frames, w0, tmp[:hi-lo])
					for i, site := range batch {
						out[site] = tmp[i]
					}
					return nil
				}, nil
			})
	}
	proto, err := core.New(c, sp, core.Options{Rules: req.Rules, BatchWidth: req.BatchWidth})
	if err != nil {
		return err
	}
	chunk := proto.Batch().Width()
	// Sweep order: cone-locality schedule positions by default, so lanes in
	// one batch share most of their union cone; ascending node IDs when the
	// caller needs OnBatch's out[lo:hi] ranges to be ID ranges (streaming,
	// and any checkpointed sweep — committed ranges must be ID ranges). The
	// kernel is packing-invariant, so both orders produce bit-identical
	// results.
	var order []netlist.ID
	if !req.sweepOrdered() {
		order = proto.Schedule().Order
	}
	return siteSweep(ctx, req, "epp-batch", sp, chunk, out,
		func() (func(lo, hi int) error, error) {
			local := proto.Clone()
			eng := local.Batch()
			sites := make([]netlist.ID, 0, eng.Width())
			tmp := make([]float64, eng.Width())
			var prevSwept int64
			return func(lo, hi int) error {
				if order != nil {
					batch := order[lo:hi]
					eng.PSensitizedBatch(batch, tmp[:hi-lo])
					for i, site := range batch {
						out[site] = tmp[i]
					}
				} else {
					sites = sites[:0]
					for id := lo; id < hi; id++ {
						sites = append(sites, netlist.ID(id))
					}
					eng.PSensitizedBatch(sites, out[lo:hi])
				}
				if req.Stats != nil {
					// Sites are counted generically by siteSweep; only the
					// kernel's union-cone member count comes from here.
					swept, _ := eng.Counters()
					req.Stats.SweptNodes.Add(swept - prevSwept)
					prevSwept = swept
				}
				return nil
			}, nil
		})
}

// scalarEngine is the executable specification: one scalar EPP sweep per
// site (core.Analyzer.EPP), against which the batched engine is verified.
type scalarEngine struct{}

func (scalarEngine) Name() string { return "epp-scalar" }
func (scalarEngine) Class() Class { return ClassAnalytic }

func (scalarEngine) PSensitizedAll(ctx context.Context, req *Request, out []float64) error {
	if err := checkOut(req, out); err != nil {
		return err
	}
	sp := req.sp()
	c := req.Circuit
	if req.Frames > 1 {
		if req.Rules != core.RulesClosedForm {
			return fmt.Errorf("engine: Rules %v requires a single-frame analysis", req.Rules)
		}
		// Per-site multi-cycle composition over scalar strike sweeps. Each
		// worker owns its own seq analyzer (the flip-flop lookahead vector
		// is memoized per analyzer and the type is not safe for concurrent
		// use); the composition — including the latch-window strike weight
		// — is deterministic arithmetic, so results are identical at any
		// worker count.
		w0 := req.strikeWeight()
		return siteSweep(ctx, req, "epp-scalar", sp, 64, out,
			func() (func(lo, hi int) error, error) {
				sa, err := seq.New(c, sp)
				if err != nil {
					return nil, err
				}
				return func(lo, hi int) error {
					for id := lo; id < hi; id++ {
						out[id] = sa.PDetectWeighted(netlist.ID(id), req.Frames, w0)
					}
					return nil
				}, nil
			})
	}
	return siteSweep(ctx, req, "epp-scalar", sp, 64, out,
		func() (func(lo, hi int) error, error) {
			an, err := core.New(c, sp, core.Options{Rules: req.Rules})
			if err != nil {
				return nil, err
			}
			return func(lo, hi int) error {
				for id := lo; id < hi; id++ {
					out[id] = an.EPP(netlist.ID(id)).PSensitized
				}
				return nil
			}, nil
		})
}

// mcEngine is the random-vector fault-injection baseline, built on the
// shared-good-sim batched kernels: the outer loop claims 64-vector words
// from an atomic cursor, each word costs exactly one full-circuit good
// simulation per frame shared by every error site, and faulty re-simulation
// runs over cone-locality site groups. A single-frame request runs
// simulate.MCBatch (P_sensitized: flip-flop captures count as detections);
// Frames > 1 runs the frame-unrolled simulate.MCSeqBatch (multi-cycle
// detection probability: corrupted flip-flop state carries across clock
// edges and only primary-output differences count — the same quantity the
// analytic engines compute through internal/seq). Vectors follow the
// shared-stream regime (word-indexed seeding), so results are identical at
// any worker count; see MCOptions.SharedVectors and SeqOptions.SharedVectors
// for the reproducibility contracts. Because the sweep is word-major,
// per-site results all finalize together: OnBatch calls arrive after the
// last word, tiling [0, N) in order, while OnProgress ticks per completed
// word and cancellation stays word-granular.
//
// Resilience follows the word-major shape: a checkpoint commits completed
// words with the kernel's integer counters (per-word merge regime), the
// MaxSweepNodes budget maps to a word budget, and kernel or callback panics
// surface as *SweepPanicError with the failing word.
type mcEngine struct{}

func (mcEngine) Name() string { return "monte-carlo" }
func (mcEngine) Class() Class { return ClassSampling }

func (mcEngine) PSensitizedAll(ctx context.Context, req *Request, out []float64) error {
	if err := checkOut(req, out); err != nil {
		return err
	}
	c := req.Circuit
	n := c.N()
	if req.SiteHi > req.SiteLo {
		// The shared-good-sim kernel is word-major: each 64-vector word costs
		// one full-circuit good simulation amortized across every site, so a
		// site-range shard would re-pay all good simulations per shard —
		// sharding by site only multiplies work. The coordinator runs sampling
		// requests whole instead.
		return fmt.Errorf("engine: monte-carlo does not support a site-range shard (the word-major shared-good-sim kernel amortizes good simulations across all sites; shard by seed or run whole instead)")
	}
	if err := req.checkMemo(); err != nil {
		return err
	}
	var (
		memoKey    string
		memoHashes []eco.Hash
	)
	if req.Memo != nil {
		// All-or-nothing reuse: the shared-good-sim kernel prices a sweep by
		// vector words (one good simulation per word amortized across every
		// site), so skipping a site subset saves nothing — a full-circuit
		// hit skips the whole sweep, any miss recomputes every site and
		// stores the complete vector back. The memo key folds in the ordered
		// source-ID list (see Request.memoKey), so a source-set edit — which
		// shifts every later source's vector stream — can never alias.
		memoHashes = req.Memo.Hashes(c, req.memoFrames())
		memoKey = req.memoKey("monte-carlo", true)
		if _, hits := req.Memo.Lookup(memoKey, memoHashes, out); hits == n {
			if req.Stats != nil {
				req.Stats.MemoHits.Add(int64(n))
			}
			if req.OnProgress != nil {
				req.OnProgress(n, n)
			}
			return wrapSweepErr("monte-carlo", n, n, replay(req.OnBatch, tile(nil, 0, n, 64)))
		}
		// Partial hits were written into out; the full recompute below
		// overwrites every entry, so nothing stale can survive.
	}
	opt := req.mcOptions()
	words := opt.Words()
	var wordsDone int // last OnWord done count, for partial-progress metadata
	onProgress := req.OnProgress
	opt.OnWord = func(done, total int) {
		wordsDone = done
		if onProgress != nil {
			// Word-granular progress, scaled to node units: after word k of
			// W the sweep has done k/W of its total work on every site.
			onProgress(n*done/total, n)
		}
	}
	var rs *resume.State
	if req.Resume != nil {
		// Corrupt checkpoints are quarantined and the sweep restarts fresh;
		// see the site-major path for the rationale.
		var err error
		rs, _, err = req.Resume.ArmRecovering("monte-carlo", req.Fingerprint("monte-carlo", nil), resume.KindWords, words)
		if err != nil {
			return err
		}
		opt.Resume = &simulate.Resume{Skip: rs.DoneMask(), Counters: countersIn(rs.Counters())}
		opt.OnCommit = func(word int, snap func() simulate.Counters) error {
			return rs.CommitWord(word, func() resume.Counters { return countersOut(snap()) })
		}
		opt.OnAbort = func(snap simulate.Counters) {
			// The interval cadence may not have written the last commits;
			// persist the final consistent partial state so the abort error's
			// "resume from the checkpoint" contract holds. The primary error
			// is already on its way to the caller — a failed best-effort
			// flush must not mask it.
			_ = rs.FlushCounters(countersOut(snap))
		}
		wordsDone = rs.DoneUnits()
	}
	if req.MaxSweepNodes > 0 {
		// Map the node budget to completed words: one word advances every
		// site by one 64-vector step, i.e. words/N of the sweep's node
		// units each — stop at the first word boundary at or past the
		// budget, like the site-major engines stop at a batch boundary.
		maxNew := (req.MaxSweepNodes*words + n - 1) / n
		if maxNew < 1 {
			maxNew = 1
		}
		opt.MaxNewWords = maxNew
	}
	var st simulate.MCStats
	fin := resume.Counters{} // final integer counters, for the completion flush
	if req.Frames > 1 {
		mb := simulate.NewMCSeqBatch(c, opt, req.Frames)
		res, err := mb.PDetectAll(ctx, req.Workers)
		if err != nil {
			return wrapSweepErr("monte-carlo", n, n*wordsDone/words, err)
		}
		if req.Latch != nil {
			// Latch-window weighting, composed from the kernel's integer
			// frame counters — the same quantity the analytic engines
			// compute by scaling the strike term of the seq composition.
			w0 := req.strikeWeight()
			for id := range res {
				out[id] = res[id].PDetectWeighted(w0)
			}
		} else {
			for id := range res {
				out[id] = res[id].PDetect
			}
		}
		st = mb.Stats()
		if rs != nil {
			fin.Detected = make([]int64, n)
			fin.Later = make([]int64, n)
			fin.Frames = make([]int64, req.Frames*n)
			for id := range res {
				fin.Detected[id] = int64(res[id].Detected)
				fin.Later[id] = int64(res[id].DetectedLater)
			}
			for f := 0; f < req.Frames; f++ {
				copy(fin.Frames[f*n:(f+1)*n], mb.FrameDetected(f))
			}
		}
	} else {
		mb := simulate.NewMCBatch(c, opt)
		res, err := mb.EPPAll(ctx, req.Workers)
		if err != nil {
			return wrapSweepErr("monte-carlo", n, n*wordsDone/words, err)
		}
		for id := range res {
			out[id] = res[id].PSensitized
		}
		st = mb.Stats()
		if rs != nil {
			fin.Detected = make([]int64, n)
			for id := range res {
				fin.Detected[id] = int64(res[id].Detected)
			}
		}
	}
	if rs != nil {
		// The sweep completed: persist the final all-words state — the
		// counters reconstructed from the kernel's integer results cover
		// every word (restored and new) — so a re-run restores the full
		// result without any simulation.
		fin.Words, fin.GoodSims, fin.LaneSims, fin.SweptMembers = st.Words, st.GoodSims, st.LaneSims, st.SweptMembers
		if err := rs.FlushCounters(fin); err != nil {
			return err
		}
	}
	if req.Stats != nil {
		req.Stats.GoodSims.Add(st.GoodSims)
		req.Stats.Words.Add(st.Words)
		req.Stats.SweptNodes.Add(st.SweptMembers)
		req.Stats.Sites.Add(st.Sites)
	}
	if req.Memo != nil {
		req.Memo.Store(memoKey, memoHashes, 0, n, out)
		if err := req.Memo.Flush(); err != nil {
			return err
		}
	}
	return wrapSweepErr("monte-carlo", n, n, replay(req.OnBatch, tile(nil, 0, n, 64)))
}

// countersIn converts a restored checkpoint counter snapshot to the kernel
// type (nil-safe).
func countersIn(c *resume.Counters) *simulate.Counters {
	if c == nil {
		return nil
	}
	return &simulate.Counters{
		Detected: c.Detected, Later: c.Later, Frames: c.Frames,
		Words: c.Words, GoodSims: c.GoodSims, LaneSims: c.LaneSims, SweptMembers: c.SweptMembers,
	}
}

// countersOut converts a kernel counter snapshot to the checkpoint type.
func countersOut(c simulate.Counters) resume.Counters {
	return resume.Counters{
		Detected: c.Detected, Later: c.Later, Frames: c.Frames,
		Words: c.Words, GoodSims: c.GoodSims, LaneSims: c.LaneSims, SweptMembers: c.SweptMembers,
	}
}

// enumEngine computes ground truth by exhaustive input enumeration (uniform
// sources, at most exact.MaxSupport of them). Chunk size 1: each site is
// 2^sources simulations, so cancellation is checked per site.
type enumEngine struct{}

func (enumEngine) Name() string { return "enum" }
func (enumEngine) Class() Class { return ClassExact }

func (enumEngine) PSensitizedAll(ctx context.Context, req *Request, out []float64) error {
	if err := checkOut(req, out); err != nil {
		return err
	}
	if req.Frames > 1 {
		return fmt.Errorf("engine: enum does not support multi-cycle frames")
	}
	if req.Bias != nil {
		return fmt.Errorf("engine: enum supports only uniform sources (Bias must be nil; use the bdd engine for biased sources)")
	}
	c := req.Circuit
	return siteSweep(ctx, req, "enum", nil, 1, out,
		func() (func(lo, hi int) error, error) {
			return func(lo, hi int) error {
				for id := lo; id < hi; id++ {
					p, err := exact.PSensitized(c, netlist.ID(id))
					if err != nil {
						return err
					}
					out[id] = p
				}
				return nil
			}, nil
		})
}

// bddEngine computes ground truth with a BDD good/faulty miter per site,
// with per-source bias and a node budget that turns blow-ups into errors.
type bddEngine struct{}

func (bddEngine) Name() string { return "bdd" }
func (bddEngine) Class() Class { return ClassExact }

func (bddEngine) PSensitizedAll(ctx context.Context, req *Request, out []float64) error {
	if err := checkOut(req, out); err != nil {
		return err
	}
	if req.Frames > 1 {
		return fmt.Errorf("engine: bdd does not support multi-cycle frames")
	}
	c := req.Circuit
	return siteSweep(ctx, req, "bdd", nil, 1, out,
		func() (func(lo, hi int) error, error) {
			return func(lo, hi int) error {
				for id := lo; id < hi; id++ {
					p, err := bddsp.PSensitized(c, netlist.ID(id), req.Bias, req.BDDBudget)
					if err != nil {
						return err
					}
					out[id] = p
				}
				return nil
			}, nil
		})
}
