// The engines' resilience layer over the shared sweep driver
// (internal/sweep): the checkpoint/resume and memo plumbing shared by the
// site-major engines, node budgets, request fingerprints, and the
// structured errors partial sweeps surface.

package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime/debug"

	"repro/internal/eco"
	"repro/internal/resume"
	"repro/internal/sweep"
)

// ErrBudget is the sentinel wrapped by a *PartialError when a sweep stops at
// its MaxSweepNodes budget; test with errors.Is.
var ErrBudget = sweep.ErrBudget

// PartialError reports a sweep that stopped before completion for an
// orderly reason — cancellation, a deadline, or the node budget — together
// with how much work had finalized. Err is the underlying cause
// (context.Canceled, context.DeadlineExceeded or ErrBudget), reachable
// through errors.Is/As via Unwrap. When the request carried a checkpoint,
// the finalized work is durable: re-running the same request resumes from
// Done units.
type PartialError struct {
	Done  int // node units finalized (restored units included)
	Total int // node units of the full sweep
	Err   error
}

// Error summarizes the stop and its progress.
func (e *PartialError) Error() string {
	return fmt.Sprintf("engine: sweep stopped after %d/%d node units: %v", e.Done, e.Total, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *PartialError) Unwrap() error { return e.Err }

// SweepPanicError is a panic recovered from inside a sweep — a worker
// goroutine processing a batch or word, or a user callback
// (OnBatch/OnProgress/OnWord) — converted to a returned error so a buggy
// callback or one poisoned input aborts the sweep cleanly instead of
// crashing the process. Engine names the engine whose sweep panicked.
type SweepPanicError = sweep.PanicError

// Fingerprint canonically hashes everything that determines the request's
// results for the named engine: the circuit's content hash plus every
// result-affecting option. Pure scheduling knobs — Workers, BatchWidth,
// OrderedSweep, and the SiteLo/SiteHi shard range — are deliberately
// excluded: the engines guarantee results bit-identical across them, so a
// checkpoint written at one worker count resumes correctly at another, and
// shards of one logical sweep computed on different machines all
// fingerprint as that sweep — which is what lets a distributed coordinator
// commit returned shard ranges against a single full-sweep checkpoint. sp
// is the resolved signal probability vector for analytic engines (nil
// otherwise) so that an SP-affecting change upstream is caught even though
// SP is computed, not configured.
func (r *Request) Fingerprint(engineName string, sp []float64) string {
	d := r.digest(engineName, r.Circuit.ContentHash())
	d.vec(r.Bias)
	d.vec(sp)
	return d.hex()
}

// memoKey is the ECO cache's request identity: every result-affecting
// option of Fingerprint except circuit content and the SP vector, which the
// per-site cone hashes replace — that exclusion is what lets results
// transfer between an edited circuit and its base. Requires the Memo
// soundness contract (nil Bias, default topological SP); see Request.Memo.
// Sampling engines additionally fold in the ordered source-ID list: vector
// streams draw per source in global ascending-ID order, so a source-set
// change shifts every later source's draws even when cones are unchanged.
func (r *Request) memoKey(engineName string, sampling bool) string {
	d := r.digest("eco-v1", engineName)
	if sampling {
		srcs := r.Circuit.Sources()
		d.int(int64(len(srcs)))
		for _, id := range srcs {
			d.int(int64(id))
		}
	}
	return d.hex()
}

// digest starts the request encoding shared by Fingerprint and memoKey: the
// head strings, then the scalar result-affecting options and the latch
// model. The byte stream keys on-disk checkpoints and SERECO1 memo files,
// so it must never change silently (TestRequestDigestsGolden pins it).
func (r *Request) digest(head ...string) *digest {
	d := &digest{h: sha256.New()}
	for _, s := range head {
		d.str(s)
	}
	d.int(int64(r.Frames))
	d.int(int64(r.Vectors))
	d.int(int64(r.Seed))
	d.int(int64(r.Rules))
	d.int(int64(r.BDDBudget))
	if r.Latch == nil {
		d.int(0)
	} else {
		d.int(1)
		d.f64(r.Latch.ClockPeriodPs)
		d.f64(r.Latch.WindowPs)
		d.f64(r.Latch.PulseWidthPs)
		d.f64(r.Latch.AttenuationPerLevel)
	}
	return d
}

// digest is a SHA-256 over a stream of little-endian 64-bit words;
// strings and vectors are length-prefixed.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digest) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) f64(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) vec(v []float64) {
	d.int(int64(len(v)))
	for _, x := range v {
		d.f64(x)
	}
}

func (d *digest) hex() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// memoFrames normalizes the request's frame count for cone hashing.
func (r *Request) memoFrames() int {
	if r.Frames < 1 {
		return 1
	}
	return r.Frames
}

// memoHashes returns the cone hashes of the request's circuit in the flavor
// the named engine is sound under: the analytic (EPP) engines read only
// cone structure plus signal-probability values, so they use the tighter
// SP-flavor digests (sp is the sweep's own vector); sampling and exact
// engines depend on the full backward structure and use the structural
// flavor. See the internal/eco soundness argument.
func (r *Request) memoHashes(engName string, sp []float64) []eco.Hash {
	if e, err := Lookup(engName); err == nil && e.Class() == ClassAnalytic {
		return r.Memo.AnalyticHashes(r.Circuit, r.memoFrames(), sp)
	}
	return r.Memo.Hashes(r.Circuit, r.memoFrames())
}

// checkMemo validates the memo combination rules shared by all engines.
func (r *Request) checkMemo() error {
	if r.Memo == nil {
		return nil
	}
	if r.Resume != nil {
		return fmt.Errorf("engine: Memo cannot combine with Resume (pick one restore source; the ECO cache already persists results)")
	}
	if r.Bias != nil {
		return fmt.Errorf("engine: Memo requires nil Bias (per-site values must be pure functions of cone content; see Request.Memo)")
	}
	return nil
}

// tile appends to spans the chunk-sized pieces of [lo, hi), aligned to lo.
func tile(spans []sweep.Span, lo, hi, chunk int) []sweep.Span {
	for ; lo < hi; lo += chunk {
		spans = append(spans, sweep.Span{Lo: lo, Hi: min(lo+chunk, hi)})
	}
	return spans
}

// pendingSpans tiles the complement of the done spans (sorted, disjoint,
// within [lo0, hi0)) into spans of at most chunk units — the sweep's work
// list. Pieces are aligned to the gap starts, not to absolute chunk
// multiples; engines built on this must be packing-invariant (they all
// are).
func pendingSpans(lo0, hi0, chunk int, done []sweep.Span) []sweep.Span {
	var spans []sweep.Span
	next := lo0
	for _, d := range done {
		spans = tile(spans, next, d.Lo, chunk)
		next = d.Hi
	}
	return tile(spans, next, hi0, chunk)
}

// wrapSweepErr finalizes a sweep's error for the engine boundary: panic
// errors get the engine name attached; orderly stops (cancellation,
// deadline, budget) are wrapped in a *PartialError carrying the progress
// metadata; everything else — OnBatch user errors in particular — is
// returned verbatim, preserving the documented errors.Is identity.
func wrapSweepErr(engName string, total, done int, err error) error {
	if err == nil {
		return nil
	}
	var pe *SweepPanicError
	if errors.As(err, &pe) {
		if pe.Engine == "" {
			pe.Engine = engName
		}
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrBudget) {
		return &PartialError{Done: done, Total: total, Err: err}
	}
	return err
}

// siteSweep runs a site-major all-sites sweep for an engine with the full
// resilience layer: checkpoint arming and replay, pending-span scheduling,
// per-batch commits, the node budget, and final flush. out must be the
// engine's result vector indexed by sweep unit — which is why engines under
// a checkpoint force ascending-ID order (Request.sweepOrdered): committed
// ranges must be ID ranges to be restorable. sp is the engine's resolved
// signal probability vector (nil for non-analytic engines), consumed by the
// request fingerprint. newWorker builds one worker's batch function; the
// shared sweep driver calls it serially, once per worker.
func siteSweep(ctx context.Context, req *Request, engName string, sp []float64, chunk int, out []float64, newWorker func() (func(lo, hi int) error, error)) error {
	n := req.Circuit.N()
	lo0, hi0, sharded, err := req.shardRange(n)
	if err != nil {
		return err
	}
	if err := req.checkMemo(); err != nil {
		return err
	}
	total := hi0 - lo0
	var (
		restored []sweep.Span
		rs       *resume.State
		doneBase int
		onBatch  = req.OnBatch
	)
	switch {
	case sharded && req.Memo != nil:
		return fmt.Errorf("engine: a site-range shard cannot carry an ECO memo cache (the coordinator owns cross-request reuse)")
	case sharded && req.Resume != nil:
		// A shard is one slice of a larger logical sweep whose durability the
		// coordinator owns (it commits returned ranges against the full-sweep
		// checkpoint); a per-shard checkpoint would fingerprint as the full
		// sweep while holding only the slice, so the combination is refused.
		return fmt.Errorf("engine: a site-range shard cannot carry its own checkpoint (the coordinator owns retry durability)")
	case req.Resume != nil:
		// A corrupt checkpoint (torn bytes, failed checksum) has been
		// quarantined to <path>.corrupt by the resume layer; the sweep
		// restarts fresh rather than folding garbage, and the quarantined
		// file keeps the forensic evidence.
		rs, _, err = req.Resume.ArmRecovering(engName, req.Fingerprint(engName, sp), resume.KindSites, n)
		if err != nil {
			return err
		}
		for _, rg := range rs.RestoreSites(out) {
			restored = append(restored, sweep.Span(rg))
		}
		doneBase = rs.DoneUnits()
		onBatch = func(lo, hi int) error {
			if err := rs.CommitSites(lo, hi, out[lo:hi]); err != nil {
				return err
			}
			if req.OnBatch != nil {
				return req.OnBatch(lo, hi)
			}
			return nil
		}
	case req.Memo != nil:
		// The memo restore mirrors the checkpoint path: cached sites are
		// restored into out (bit-identical — values are stored as IEEE-754
		// bit patterns keyed by cone hash), replayed through OnBatch, and the
		// sweep covers the complement. Freshly computed batches are stored
		// back under the commit hook, and the cache is flushed on every exit
		// path, so even a budgeted or deadlined sweep banks its results.
		hashes := req.memoHashes(engName, sp)
		key := req.memoKey(engName, false)
		ranges, hits := req.Memo.Lookup(key, hashes, out)
		for _, rg := range ranges {
			restored = append(restored, sweep.Span(rg))
		}
		doneBase = hits
		if req.Stats != nil {
			req.Stats.MemoHits.Add(int64(hits))
		}
		onBatch = func(lo, hi int) error {
			req.Memo.Store(key, hashes, lo, hi, out[lo:hi])
			if req.OnBatch != nil {
				return req.OnBatch(lo, hi)
			}
			return nil
		}
	}
	// Replay restored ranges through OnBatch up front so streaming consumers
	// see every site exactly once across the interrupted and resumed runs'
	// perspective of this sweep.
	if err := replay(req.OnBatch, restored); err != nil {
		return wrapSweepErr(engName, total, doneBase, err)
	}
	cfg := sweep.Config[func(lo, hi int) error]{
		Spans:    pendingSpans(lo0, hi0, chunk, restored),
		Workers:  req.Workers,
		DoneBase: doneBase,
		// The budget bounds this call's new work; restored units are free.
		Budget: req.MaxSweepNodes,
		Unit:   "batch",
		New:    newWorker,
		Do: func(do func(lo, hi int) error, lo, hi int) error {
			if err := do(lo, hi); err != nil {
				return err
			}
			if req.Stats != nil {
				// Count analyzed sites generically: restored sites (checkpoint
				// or memo) are not analyzed, so on a memo-assisted run
				// MemoHits + Sites covers the whole sweep.
				req.Stats.Sites.Add(int64(hi - lo))
			}
			return nil
		},
	}
	if onBatch != nil {
		cfg.After = func(_ func(lo, hi int) error, lo, hi int) error { return onBatch(lo, hi) }
	}
	if req.OnProgress != nil {
		cfg.Progress = func(done int) { req.OnProgress(done, total) }
	}
	done, err := sweep.Run(ctx, cfg)
	if rs != nil {
		// Flush on every path: after an orderly stop (budget, deadline,
		// cancel) the committed batches since the last cadence write become
		// durable, so -checkpoint composes with -timeout into convergence.
		if ferr := rs.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if req.Memo != nil {
		if ferr := req.Memo.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return wrapSweepErr(engName, total, done, err)
}

// replay delivers already-final ranges through a user OnBatch callback (nil
// is a no-op) with panic recovery — checkpoint and memo restores, and the
// word-major engine's end-of-sweep tiling, all run outside the sweep
// driver's own recovery.
func replay(onBatch func(lo, hi int) error, spans []sweep.Span) (err error) {
	cur := sweep.Span{Lo: -1, Hi: -1}
	defer func() {
		if r := recover(); r != nil {
			err = &SweepPanicError{Unit: "batch", Lo: cur.Lo, Hi: cur.Hi, Value: r, Stack: debug.Stack()}
		}
	}()
	if onBatch == nil {
		return nil
	}
	for _, cur = range spans {
		if err := onBatch(cur.Lo, cur.Hi); err != nil {
			return err
		}
	}
	return nil
}

// sweepOrdered reports whether the sweep must run in ascending node-ID
// order: requested explicitly (streaming), forced by a checkpoint (whose
// committed ranges must be ID ranges to be restorable), or forced by a
// site-range shard (whose [SiteLo, SiteHi) bounds are ID bounds, so the
// sweep positions must be IDs, not cone-locality schedule positions). The
// engines' kernels are packing-invariant, so the order never changes
// results.
func (r *Request) sweepOrdered() bool {
	return r.OrderedSweep || r.Resume != nil || r.Memo != nil || r.SiteHi > r.SiteLo
}

// shardRange validates and resolves the request's optional [SiteLo, SiteHi)
// shard range against the circuit's n sites. A range is active iff
// SiteHi > SiteLo; an inactive request sweeps the full [0, n). Engines that
// cannot honor a sub-range (the word-major monte-carlo sampler) reject
// active ranges themselves with a descriptive error.
func (r *Request) shardRange(n int) (lo, hi int, active bool, err error) {
	if r.SiteHi <= r.SiteLo {
		if r.SiteLo != 0 || r.SiteHi != 0 {
			return 0, 0, false, fmt.Errorf("engine: invalid site range [%d, %d): empty or inverted (leave both zero for a full sweep)", r.SiteLo, r.SiteHi)
		}
		return 0, n, false, nil
	}
	if r.SiteLo < 0 || r.SiteHi > n {
		return 0, 0, false, fmt.Errorf("engine: site range [%d, %d) out of bounds for %d sites", r.SiteLo, r.SiteHi, n)
	}
	return r.SiteLo, r.SiteHi, true, nil
}
