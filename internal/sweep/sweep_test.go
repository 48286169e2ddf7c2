package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// worker is a test worker that records which spans it processed.
type worker struct{ ran []Span }

// recorder collects the spans every worker processed, merged at Exit.
type recorder struct {
	mu  sync.Mutex
	ran []Span
}

func (r *recorder) config(spans []Span, workers int) Config[*worker] {
	return Config[*worker]{
		Spans:   spans,
		Workers: workers,
		Unit:    "batch",
		New:     func() (*worker, error) { return &worker{}, nil },
		Do: func(w *worker, lo, hi int) error {
			w.ran = append(w.ran, Span{lo, hi})
			return nil
		},
		Exit: func(w *worker) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.ran = append(r.ran, w.ran...)
		},
	}
}

// tiles splits [0, n) into chunk-sized spans.
func tiles(n, chunk int) []Span {
	var spans []Span
	for lo := 0; lo < n; lo += chunk {
		spans = append(spans, Span{lo, min(lo+chunk, n)})
	}
	return spans
}

// runWithin runs the sweep and fails the test if it does not return
// promptly — a deadlocked driver must fail, not hang the suite.
func runWithin[W any](t *testing.T, ctx context.Context, cfg Config[W]) (int, error) {
	t.Helper()
	type result struct {
		done int
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		done, err := Run(ctx, cfg)
		ch <- result{done, err}
	}()
	select {
	case r := <-ch:
		return r.done, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("sweep deadlocked")
		return 0, nil
	}
}

func TestRunCoversEverySpanOnce(t *testing.T) {
	spans := tiles(1000, 64)
	for _, workers := range []int{0, 1, 2, 8, 100} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			var rec recorder
			var last atomic.Int64
			cfg := rec.config(spans, workers)
			cfg.DoneBase = 7
			cfg.Progress = func(done int) {
				if int64(done) <= last.Load() {
					t.Errorf("progress %d not increasing past %d", done, last.Load())
				}
				last.Store(int64(done))
			}
			done, err := runWithin(t, context.Background(), cfg)
			if err != nil || done != 1007 || last.Load() != 1007 {
				t.Fatalf("done=%d progress=%d err=%v, want 1007/1007/nil", done, last.Load(), err)
			}
			seen := make([]bool, 1000)
			for _, s := range rec.ran {
				for u := s.Lo; u < s.Hi; u++ {
					if seen[u] {
						t.Fatalf("unit %d processed twice", u)
					}
					seen[u] = true
				}
			}
			for u, ok := range seen {
				if !ok {
					t.Fatalf("unit %d never processed", u)
				}
			}
		})
	}
}

// TestExitPanicDoesNotDeadlock: the worker-exit merge of the word-major
// kernels (no commit hook) runs as the Exit hook. A panicking Exit must
// surface as a structured *PanicError promptly: before the deferred
// unlock, a merge that panicked with the mutex held turned the worker's
// recover path (fail, which takes the same mutex) into a self-deadlock.
func TestExitPanicDoesNotDeadlock(t *testing.T) {
	t.Parallel()
	var words atomic.Int64
	cfg := Config[struct{}]{
		Spans:   tiles(8, 1),
		Workers: 2,
		Unit:    "word",
		New:     func() (struct{}, error) { return struct{}{}, nil },
		Do:      func(struct{}, int, int) error { words.Add(1); return nil },
		Exit:    func(struct{}) { panic("merge exploded") },
	}
	_, err := runWithin(t, context.Background(), cfg)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want *PanicError", err)
	}
	if pe.Value != "merge exploded" || pe.Unit != "word" || pe.Lo != -1 {
		t.Fatalf("PanicError = %+v, want the merge panic, unit word, no word index", pe)
	}
	if words.Load() != 8 {
		t.Fatalf("ran %d words, want 8 (merge panics only at worker exit)", words.Load())
	}
}

// TestSetupPanic: a panicking worker constructor becomes a *PanicError with
// Unit "setup", and workers already started wind down.
func TestSetupPanic(t *testing.T) {
	var rec recorder
	cfg := rec.config(tiles(640, 64), 4)
	built := 0
	cfg.New = func() (*worker, error) {
		if built++; built == 2 {
			panic("poisoned circuit")
		}
		return &worker{}, nil
	}
	_, err := runWithin(t, context.Background(), cfg)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Unit != "setup" || pe.Value != "poisoned circuit" || pe.Lo != -1 || pe.Hi != -1 {
		t.Fatalf("err = %v, want a setup *PanicError", err)
	}
	if built != 2 {
		t.Fatalf("built %d workers, want construction to stop at the panic", built)
	}
}

// TestAfterPanic: a panicking After hook (a user callback) becomes a
// *PanicError naming the span, which is not counted into done.
func TestAfterPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			var rec recorder
			cfg := rec.config(tiles(640, 64), workers)
			cfg.After = func(_ *worker, lo, hi int) error {
				if lo == 128 {
					panic("callback exploded")
				}
				return nil
			}
			done, err := runWithin(t, context.Background(), cfg)
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Unit != "batch" || pe.Lo != 128 || pe.Hi != 192 || len(pe.Stack) == 0 {
				t.Fatalf("err = %v, want a *PanicError at batch [128,192)", err)
			}
			if done > 640-64 {
				t.Fatalf("done = %d counts the panicking span", done)
			}
		})
	}
}

// TestCancelBetweenClaims: ctx is checked before every claim, so a cancel
// from a progress callback stops a serial sweep after exactly that span.
func TestCancelBetweenClaims(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rec recorder
	cfg := rec.config(tiles(640, 64), 1)
	cfg.Progress = func(done int) {
		if done >= 128 {
			cancel()
		}
	}
	done, err := runWithin(t, ctx, cfg)
	if !errors.Is(err, context.Canceled) || done != 128 {
		t.Fatalf("done=%d err=%v, want 128 and context.Canceled", done, err)
	}
	if len(rec.ran) != 2 {
		t.Fatalf("processed %d spans, want 2", len(rec.ran))
	}
}

// TestDoErrorVerbatim: a worker error aborts the sweep and is returned
// unwrapped.
func TestDoErrorVerbatim(t *testing.T) {
	sentinel := errors.New("kernel refused")
	var rec recorder
	cfg := rec.config(tiles(640, 64), 4)
	cfg.Do = func(_ *worker, lo, _ int) error {
		if lo == 256 {
			return sentinel
		}
		return nil
	}
	if _, err := runWithin(t, context.Background(), cfg); err != sentinel {
		t.Fatalf("err = %v, want the sentinel verbatim", err)
	}
}

// TestBudgetTruncation: the budget cuts the span list up front to the
// fewest leading spans covering it, so done and the processed spans are
// identical at every worker count; a budget covering everything is no stop.
func TestBudgetTruncation(t *testing.T) {
	spans := []Span{{0, 10}, {10, 13}, {20, 50}, {50, 51}, {60, 100}}
	cases := []struct {
		budget, done int
		err          error
	}{
		{1, 10, ErrBudget},
		{11, 13, ErrBudget},
		{13, 13, ErrBudget},
		{14, 43, ErrBudget},
		{45, 84, nil},
		{1000, 84, nil},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("budget=%d/workers=%d", tc.budget, workers), func(t *testing.T) {
				var rec recorder
				cfg := rec.config(spans, workers)
				cfg.Budget = tc.budget
				done, err := runWithin(t, context.Background(), cfg)
				if err != tc.err || done != tc.done {
					t.Fatalf("done=%d err=%v, want %d and %v", done, err, tc.done, tc.err)
				}
				units := 0
				for _, s := range rec.ran {
					units += s.Hi - s.Lo
				}
				if units != tc.done {
					t.Fatalf("processed %d units, want exactly the %d of the leading spans", units, tc.done)
				}
			})
		}
	}
}

// TestNothingPending: with every unit restored, Run reports DoneBase once
// and builds no worker.
func TestNothingPending(t *testing.T) {
	var reported []int
	cfg := Config[struct{}]{
		DoneBase: 42,
		New:      func() (struct{}, error) { t.Fatal("worker built for an empty sweep"); return struct{}{}, nil },
		Progress: func(done int) { reported = append(reported, done) },
	}
	done, err := Run(context.Background(), cfg)
	if err != nil || done != 42 || len(reported) != 1 || reported[0] != 42 {
		t.Fatalf("done=%d err=%v progress=%v, want 42, nil, [42]", done, err, reported)
	}
}
