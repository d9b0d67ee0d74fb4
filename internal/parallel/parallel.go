// Package parallel is the deterministic fan-out primitive used by
// every hot loop in the system: the core pass's interval tasks
// (Ordered), config-grid pricing sweeps and per-frame
// characterization.
//
// The contract that makes it safe to drop into a reproduction pipeline
// is determinism: results are delivered in input order regardless of
// which worker finishes first, tasks receive no shared mutable state
// from the pool, and a run with N workers produces output bit-identical
// to a run with 1 worker. Parallelism here changes wall-clock time and
// nothing else — an invariant the determinism tests in internal/core
// assert across worker counts.
//
// Error semantics: the first failure cancels the remaining work
// promptly (tasks observe cancellation through their context), every
// started task is waited for — no goroutine outlives a call — and the
// error returned is the one from the lowest-indexed task that was
// observed to fail, which keeps error identity stable across worker
// counts in the common single-failure case. A panicking task does not
// crash the process: the panic is recovered into a *PanicError (stack
// captured) that takes the same lowest-index-wins path as any other
// task failure.
package parallel

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// PanicError is a task panic converted into an error: the pool
// contains panics instead of crashing the process, so one poisoned
// item in a fan-out (or one hostile request in a server batch) cancels
// the call cleanly while every sibling task unwinds through the normal
// error path. It participates in lowest-index-wins selection like any
// task error.
type PanicError struct {
	Index int    // task index that panicked (-1 when not index-addressed)
	Value any    // the recover() value
	Stack []byte // stack of the panicking goroutine, captured at recover
}

// Error implements error, including the captured stack so the panic
// site is never lost even after crossing goroutine and process
// boundaries (logs, HTTP 500 diagnostics).
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Call runs fn, converting a panic into a *PanicError carrying the
// given index and the panicking goroutine's stack. It is the panic
// boundary ForEach wraps every task in; servers reuse it to contain
// panics of request handlers executed outside a pool.
func Call(index int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: index, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Workers normalizes a worker-count request: values <= 0 select
// GOMAXPROCS (the CLI default for -workers flags), anything else is
// returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs f(ctx, i) for every i in [0, n) using at most
// workers goroutines (workers <= 0 selects GOMAXPROCS). It returns
// after every started task has finished.
//
// If any task fails, the shared context is canceled so in-flight tasks
// can stop early, no further tasks are started, and the error of the
// lowest-indexed observed failure is returned. If the parent context is
// canceled mid-run, ForEach stops issuing tasks and returns the
// context's error.
//
// With workers == 1 (or n <= 1) tasks run inline on the calling
// goroutine in index order with no pool at all, which is also the
// reference semantics the parallel path must reproduce.
func ForEach(ctx context.Context, workers, n int, f func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}

	// When an observer rides the context the pool feeds it: task and
	// call counters on the run's registry, busy-vs-capacity occupancy
	// on the innermost span. All of it is timing/accounting only —
	// task results are untouched, so determinism is unaffected. With
	// no observer every hook below is a nil no-op.
	var (
		run       = obs.RunFromContext(ctx)
		span      = obs.SpanFromContext(ctx)
		tasks     *obs.Counter
		poolStart time.Time
		busyNs    atomic.Int64
	)
	if run != nil {
		run.Metrics().Counter("parallel.calls").Inc()
		tasks = run.Metrics().Counter("parallel.tasks")
		poolStart = time.Now()
	}

	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := Call(i, func() error { return f(ctx, i) }); err != nil {
				return err
			}
			tasks.Inc()
		}
		if run != nil {
			wall := time.Since(poolStart)
			span.AddPool(1, wall, wall)
		}
		return nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next    atomic.Int64
		mu      sync.Mutex
		errIdx  = n // index of the lowest observed failure
		firstEr error
		wg      sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
		cancel()
	}

	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			if run != nil {
				t0 := time.Now()
				defer func() { busyNs.Add(time.Since(t0).Nanoseconds()) }()
			}
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// Stop claiming work once canceled. Record the parent's
				// error (deadline, Ctrl-C) so callers see it; internal
				// cancellation after a task failure is not an error of
				// task i, so it is not recorded on its behalf.
				if wctx.Err() != nil {
					if perr := ctx.Err(); perr != nil {
						fail(i, perr)
					}
					return
				}
				if err := Call(i, func() error { return f(wctx, i) }); err != nil {
					fail(i, err)
					return
				}
				tasks.Inc()
			}
		}()
	}
	wg.Wait()
	if run != nil {
		span.AddPool(w, time.Duration(busyNs.Load()), time.Since(poolStart))
	}
	// firstEr is nil when every task completed; like the sequential
	// path, a cancellation that arrives after the last task is not an
	// error (a skipped task records the parent's error above).
	return firstEr
}

// Map runs f over [0, n) with at most workers goroutines and returns
// the results in index order regardless of completion order. Error and
// cancellation semantics are those of ForEach; on error the partial
// results are discarded and nil is returned.
func Map[R any](ctx context.Context, workers, n int, f func(ctx context.Context, i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	err := ForEach(ctx, workers, n, func(ctx context.Context, i int) error {
		r, err := f(ctx, i)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapSlice is Map over the elements of a slice: f receives each item by
// index and the results arrive in input order.
func MapSlice[T, R any](ctx context.Context, workers int, items []T, f func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	return Map(ctx, workers, len(items), func(ctx context.Context, i int) (R, error) {
		return f(ctx, i, items[i])
	})
}

// Ordered drains a source of unknown length through an order-preserving
// window. next yields items one at a time (ok false after the last), f
// runs on each item on at most workers goroutines (workers <= 0 selects
// GOMAXPROCS), and fold receives each result in the order next yielded
// the items. next and fold run on the calling goroutine only. At most
// 2*workers items are between next and fold at once, so a source of any
// length drains in memory bounded by the window; finished results are
// folded before the next item is read.
//
// Error semantics are ForEach's. A failed task cancels the tasks behind
// it that have not started, and the drain ends when the fold reaches
// the first failed index, so the error returned is the lowest-indexed
// one (a failed next holds the index its item would have had); every
// started task is waited for, so no goroutine outlives the call; and a
// panicking task becomes a *PanicError. A canceled ctx stops the drain
// with ctx.Err(). With workers == 1 each item runs inline as it is
// read, with no pool.
func Ordered[T, R any](ctx context.Context, workers int, next func() (T, bool, error), f func(i int, item T) (R, error), fold func(i int, r R) error) error {
	w := Workers(workers)
	type task struct {
		i    int
		item T
		r    R
		err  error
		done chan struct{}
	}
	// skipFrom is the lowest failed index. The fold stops there, so the
	// tasks behind it are skipped (never run, never folded); on return
	// every queued one is.
	var skipFrom, busyNs atomic.Int64
	skipFrom.Store(math.MaxInt64)
	tasks, start := obs.RunFromContext(ctx).Metrics().Counter("parallel.tasks"), time.Now()
	run := func(t *task) {
		if i := int64(t.i); i < skipFrom.Load() {
			t0 := time.Now()
			t.err = Call(t.i, func() (err error) { t.r, err = f(t.i, t.item); return err })
			busyNs.Add(int64(time.Since(t0)))
			tasks.Inc()
			for cur := skipFrom.Load(); t.err != nil && i < cur && !skipFrom.CompareAndSwap(cur, i); cur = skipFrom.Load() {
			}
		}
		close(t.done)
	}
	// jobs feeds the pool and never fills: it holds at most the window.
	jobs := make(chan *task, 2*w)
	var wg sync.WaitGroup
	if w > 1 {
		wg.Add(w)
		for range w {
			go func() {
				defer wg.Done()
				for t := range jobs {
					run(t)
				}
			}()
		}
	}
	defer func() {
		skipFrom.Store(-1)
		close(jobs)
		wg.Wait()
		obs.SpanFromContext(ctx).AddPool(w, time.Duration(busyNs.Load()), time.Since(start))
	}()

	var (
		window  []*task // read, not yet folded, in index order
		readErr error
		eof     bool
	)
	for i := 0; ; {
		canRead := !eof && readErr == nil && len(window) < 2*w
		if len(window) > 0 {
			t := window[0]
			if !canRead {
				select {
				case <-t.done:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			select {
			case <-t.done:
				window[0], window = nil, window[1:] // release the folded item
				if t.err != nil {
					return t.err
				}
				if err := fold(t.i, t.r); err != nil {
					return err
				}
				continue
			default:
			}
		}
		if !canRead {
			return readErr
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		item, ok, err := next()
		switch {
		case err != nil:
			readErr = err
		case !ok:
			eof = true
		default:
			t := &task{i: i, item: item, done: make(chan struct{})}
			i++
			window = append(window, t)
			if w == 1 {
				run(t)
			} else {
				jobs <- t
			}
		}
	}
}
