// Package sweep is the one parallel driver behind every all-sites sweep in
// the repository: the site-major engines claim batches of error sites, the
// word-major Monte Carlo kernels claim 64-vector words, and both run through
// Run. The driver owns the concurrency contract the engines promise —
// cancellation between claims, panic isolation, serialized callbacks, a
// deterministic unit budget — so no engine re-implements it.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrBudget is returned by Run when the sweep stopped at its unit budget
// with claimable spans left unprocessed; test with errors.Is.
var ErrBudget = errors.New("engine: sweep node budget exhausted")

// PanicError is a panic recovered from inside a sweep — a worker processing
// a span, a worker constructor, or a hook (and through the hooks the user
// callbacks they call) — converted to a returned error so a buggy callback
// or one poisoned input aborts the sweep cleanly instead of crashing the
// process.
type PanicError struct {
	Engine string // registry name of the engine whose sweep panicked; set by the engine layer
	Unit   string // failing unit kind: "batch", "word", "setup" or "sweep"
	Lo, Hi int    // failing unit range: [Lo, Hi) sites, or word index Lo; -1 if unknown
	Value  any    // the recovered panic value
	Stack  []byte // stack of the panicking goroutine at recovery
}

// Error summarizes the panic; the full stack is in Stack.
func (e *PanicError) Error() string {
	where := ""
	switch {
	case e.Unit == "word" && e.Lo >= 0:
		where = fmt.Sprintf(" at word %d", e.Lo)
	case e.Lo >= 0:
		where = fmt.Sprintf(" at %s [%d,%d)", e.Unit, e.Lo, e.Hi)
	}
	return fmt.Sprintf("engine: panic in %s sweep%s: %v", e.Engine, where, e.Value)
}

// Span is one contiguous claimable range [Lo, Hi) of a sweep's unit space.
type Span struct{ Lo, Hi int }

// Config describes one sweep for Run. W is the per-worker state.
type Config[W any] struct {
	// Spans is the claimable work list, claimed in order from an atomic
	// cursor. Its units count toward done and Budget.
	Spans []Span
	// Workers bounds the goroutine count (<= 0 means GOMAXPROCS); it is
	// clamped to len(Spans).
	Workers int
	// DoneBase counts units finished before this call (restored from a
	// checkpoint or a memo); done counts up from it.
	DoneBase int
	// Budget, when > 0, bounds this call's new units: Spans is truncated
	// up front to the fewest leading spans covering Budget units, and Run
	// returns ErrBudget once those finish if any span was cut. Because
	// the cut is made before any claim, done is the same at any worker
	// count.
	Budget int
	// Unit names the span kind in a *PanicError ("batch" or "word").
	Unit string
	// New builds one worker. It runs serially in the caller's goroutine,
	// before any worker starts, so a constructor may hand its prototype to
	// the first worker; a panic in it is a *PanicError with Unit "setup".
	New func() (W, error)
	// Do processes one claimed span on the worker's goroutine.
	Do func(w W, lo, hi int) error
	// After, optional, runs after each span Do completes, then the driver
	// counts the span's units into done and calls Progress, optional, with
	// the new total. Exit, optional, runs once per worker when it stops
	// claiming. All three run under one mutex, never concurrently, and no
	// span is counted once the sweep has failed. A non-nil error from
	// After aborts the sweep and is returned verbatim. With no spans to
	// claim and DoneBase > 0, Progress reports DoneBase once.
	After    func(w W, lo, hi int) error
	Progress func(done int)
	Exit     func(w W)
}

// Run drives one sweep: workers claim spans from a lock-free atomic cursor
// until the list is exhausted, ctx is done (checked before each claim), or
// any span, hook or constructor fails. The first error wins; panics become
// a *PanicError. Engines built on Run write each unit's result exactly
// once, so their results are bit-identical at any worker count and any
// span partitioning. The returned done count (DoneBase plus the units whose
// After succeeded) is valid on error paths too, for partial-progress
// metadata.
func Run[W any](ctx context.Context, cfg Config[W]) (int, error) {
	spans, budgetHit := truncate(cfg.Spans, cfg.Budget)
	var (
		cursor atomic.Int64
		abort  atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
		done   = cfg.DoneBase
	)
	if len(spans) == 0 {
		if cfg.Progress != nil && done > 0 {
			cfg.Progress(done)
		}
		return done, nil
	}
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if first == nil {
			first = err
		}
		abort.Store(true)
	}
	// after and exit are the serialized sections. The deferred recover
	// turns a hook panic into an error while the deferred unlock keeps the
	// mutex released either way — a panicking hook must never leave the
	// sweep deadlocked behind a held lock.
	after := func(w W, s Span) (err error) {
		mu.Lock()
		defer mu.Unlock()
		defer recoverInto(&err, cfg.Unit, s)
		if first != nil {
			return first
		}
		if cfg.After != nil {
			if err := cfg.After(w, s.Lo, s.Hi); err != nil {
				return err
			}
		}
		done += s.Hi - s.Lo
		if cfg.Progress != nil {
			cfg.Progress(done)
		}
		return nil
	}
	exit := func(w W) (err error) {
		mu.Lock()
		defer mu.Unlock()
		defer recoverInto(&err, cfg.Unit, Span{-1, -1})
		cfg.Exit(w)
		return nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(spans))
	for range workers {
		w, err := build(cfg.New)
		if err != nil {
			fail(err)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := Span{-1, -1}
			defer recoverFail(fail, cfg.Unit, &cur)
			for !abort.Load() {
				if err := ctx.Err(); err != nil {
					fail(err)
					break
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(spans) {
					break
				}
				cur = spans[i]
				if err := cfg.Do(w, cur.Lo, cur.Hi); err != nil {
					fail(err)
					break
				}
				if err := after(w, cur); err != nil {
					fail(err)
					break
				}
				cur = Span{-1, -1}
			}
			if cfg.Exit != nil {
				if err := exit(w); err != nil {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()
	if first == nil && budgetHit {
		first = ErrBudget
	}
	return done, first
}

// truncate applies the unit budget: the fewest leading spans covering
// budget units, and whether any span was cut.
func truncate(spans []Span, budget int) ([]Span, bool) {
	if budget <= 0 {
		return spans, false
	}
	units := 0
	for i, s := range spans {
		if units += s.Hi - s.Lo; units >= budget {
			return spans[:i+1], i+1 < len(spans)
		}
	}
	return spans, false
}

// build runs a worker constructor with panic recovery: construction happens
// serially in the caller's goroutine, so a panic there (a poisoned circuit,
// say) must also become an error, not a crash.
func build[W any](newWorker func() (W, error)) (w W, err error) {
	defer recoverInto(&err, "setup", Span{-1, -1})
	return newWorker()
}

// recoverInto, deferred, converts a panic into a *PanicError in *err.
func recoverInto(err *error, unit string, s Span) {
	if r := recover(); r != nil {
		*err = &PanicError{Unit: unit, Lo: s.Lo, Hi: s.Hi, Value: r, Stack: debug.Stack()}
	}
}

// recoverFail, deferred at the top of a worker goroutine, converts a panic
// in Do into a *PanicError naming the span in flight and fails the sweep.
func recoverFail(fail func(error), unit string, cur *Span) {
	if r := recover(); r != nil {
		fail(&PanicError{Unit: unit, Lo: cur.Lo, Hi: cur.Hi, Value: r, Stack: debug.Stack()})
	}
}
