package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// checkNoLeaks fails the test if the goroutine count does not settle
// back to its value at registration time. In-tree goleak substitute:
// the runtime needs a moment to reap exited goroutines, so it polls.
func checkNoLeaks(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutines leaked: %d now, %d at test start", runtime.NumGoroutine(), base)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestMapOrderPreserved(t *testing.T) {
	checkNoLeaks(t)
	const n = 500
	for _, workers := range []int{1, 2, 4, 8, 33} {
		got, err := Map(context.Background(), workers, n, func(_ context.Context, i int) (int, error) {
			if i%7 == 0 {
				runtime.Gosched() // shuffle completion order
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapSliceOrderPreserved(t *testing.T) {
	checkNoLeaks(t)
	items := []string{"a", "bb", "ccc", "dddd"}
	got, err := MapSlice(context.Background(), 4, items, func(_ context.Context, i int, s string) (int, error) {
		return len(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Errorf("got[%d] = %d, want %d", i, v, i+1)
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	checkNoLeaks(t)
	if err := ForEach(context.Background(), 4, 0, func(context.Context, int) error {
		t.Fatal("task ran for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ran := 0
	if err := ForEach(context.Background(), 8, 1, func(_ context.Context, i int) error {
		ran++
		return nil
	}); err != nil || ran != 1 {
		t.Fatalf("n=1: err=%v ran=%d", err, ran)
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	checkNoLeaks(t)
	const workers = 3
	var inFlight, maxSeen atomic.Int64
	err := ForEach(context.Background(), workers, 100, func(context.Context, int) error {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			m := maxSeen.Load()
			if cur <= m || maxSeen.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := maxSeen.Load(); m > workers {
		t.Errorf("observed %d concurrent tasks, limit %d", m, workers)
	}
}

func TestForEachLowestIndexedError(t *testing.T) {
	checkNoLeaks(t)
	errWant := errors.New("boom-3")
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 64, func(_ context.Context, i int) error {
			if i == 3 {
				return errWant
			}
			if i > 40 {
				return fmt.Errorf("boom-%d", i)
			}
			return nil
		})
		if !errors.Is(err, errWant) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, errWant)
		}
	}
}

func TestForEachErrorCancelsRemainingWork(t *testing.T) {
	checkNoLeaks(t)
	var started atomic.Int64
	errBoom := errors.New("boom")
	err := ForEach(context.Background(), 2, 10_000, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return errBoom
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if s := started.Load(); s > 100 {
		t.Errorf("%d tasks started after early failure; cancellation not prompt", s)
	}
}

func TestForEachParentCancellation(t *testing.T) {
	checkNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan error, 1)
	release := make(chan struct{})
	go func() {
		done <- ForEach(ctx, 4, 1_000_000, func(ctx context.Context, i int) error {
			ran.Add(1)
			if i < 4 {
				<-release // hold the first wave until cancel is issued
			}
			return nil
		})
	}()
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return promptly after cancel")
	}
	if r := ran.Load(); r > 1000 {
		t.Errorf("%d tasks ran after cancellation", r)
	}
}

func TestForEachPreCanceledContext(t *testing.T) {
	checkNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := false
		err := ForEach(ctx, workers, 100, func(context.Context, int) error {
			ran = true
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v", workers, err)
		}
		if workers == 1 && ran {
			t.Error("sequential path ran a task on a pre-canceled context")
		}
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	checkNoLeaks(t)
	got, err := Map(context.Background(), 4, 16, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got != nil {
		t.Errorf("partial results returned on error: %v", got)
	}
}

// TestMapDeterministicAcrossWorkerCounts is the package-level statement
// of the system invariant: identical outputs at any worker count.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	checkNoLeaks(t)
	run := func(workers int) []float64 {
		out, err := Map(context.Background(), workers, 300, func(_ context.Context, i int) (float64, error) {
			v := 1.0
			for k := 0; k < i%17; k++ {
				v = v*1.25 + float64(i)
			}
			return v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result[%d] = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestForEachPanicBecomesError is the panic-containment contract: a
// panicking task surfaces as a *PanicError (with the stack of the
// panic site), never crashes the process, and wins lowest-index
// selection like any other task failure.
func TestForEachPanicBecomesError(t *testing.T) {
	checkNoLeaks(t)
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 64, func(_ context.Context, i int) error {
			if i == 3 {
				panic(fmt.Sprintf("poisoned item %d", i))
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 3 {
			t.Errorf("workers=%d: panic index %d, want 3", workers, pe.Index)
		}
		if pe.Value != "poisoned item 3" {
			t.Errorf("workers=%d: panic value %v", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "parallel") {
			t.Errorf("workers=%d: stack not captured: %q", workers, pe.Stack)
		}
		if !strings.Contains(err.Error(), "poisoned item 3") {
			t.Errorf("workers=%d: Error() lost the panic value: %s", workers, err)
		}
	}
}

// TestForEachPanicCancelsCleanly checks that a panic at index k
// behaves exactly like an error at index k: the remaining work is
// canceled promptly, every started sibling is waited for, and no
// goroutine outlives the call.
func TestForEachPanicCancelsCleanly(t *testing.T) {
	checkNoLeaks(t)
	var started atomic.Int64
	err := ForEach(context.Background(), 4, 100_000, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 7 {
			panic("boom at 7")
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if s := started.Load(); s > 1000 {
		t.Errorf("%d tasks started after the panic; cancellation not prompt", s)
	}
}

// TestForEachPanicLowestIndexWins: when a panic and an ordinary error
// race, the lowest-indexed failure is reported regardless of kind.
func TestForEachPanicLowestIndexWins(t *testing.T) {
	checkNoLeaks(t)
	errWant := errors.New("plain error at 2")
	err := ForEach(context.Background(), 1, 16, func(_ context.Context, i int) error {
		switch i {
		case 2:
			return errWant
		case 5:
			panic("panic at 5")
		}
		return nil
	})
	if !errors.Is(err, errWant) {
		t.Errorf("err = %v, want the index-2 error", err)
	}
}

func TestCallPassthrough(t *testing.T) {
	if err := Call(0, func() error { return nil }); err != nil {
		t.Errorf("Call = %v on success", err)
	}
	want := errors.New("plain")
	if err := Call(0, func() error { return want }); !errors.Is(err, want) {
		t.Errorf("Call = %v, want passthrough error", err)
	}
}

// counter is an Ordered source of n items, the item being its index,
// that records how far it ran ahead of the fold.
type counter struct {
	n, read, folded, maxAhead int
	err                       error // returned in place of item errAt
	errAt                     int
}

func (c *counter) next() (int, bool, error) {
	if c.err != nil && c.read == c.errAt {
		return 0, false, c.err
	}
	if c.read == c.n {
		return 0, false, nil
	}
	c.read++
	c.maxAhead = max(c.maxAhead, c.read-c.folded)
	return c.read - 1, true, nil
}

func (c *counter) fold(t *testing.T) func(i, r int) error {
	return func(i, r int) error {
		if i != c.folded || r != i*i {
			t.Errorf("fold got item %d = %d, want item %d = %d", i, r, c.folded, c.folded*c.folded)
			return errors.New("fold out of order")
		}
		c.folded++
		return nil
	}
}

func square(i, item int) (int, error) {
	if i%7 == 0 {
		runtime.Gosched() // shuffle completion order
	}
	return item * item, nil
}

// TestOrderedFoldsInOrderWithinTheWindow: every item is folded once,
// in the order the source yielded it, and the source never runs more
// than the window (twice the workers) ahead of the fold.
func TestOrderedFoldsInOrderWithinTheWindow(t *testing.T) {
	checkNoLeaks(t)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 500} {
			c := &counter{n: n}
			if err := Ordered(context.Background(), workers, c.next, square, c.fold(t)); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			if c.folded != n {
				t.Errorf("workers=%d n=%d: folded %d items", workers, n, c.folded)
			}
			if c.maxAhead > 2*workers {
				t.Errorf("workers=%d n=%d: the source ran %d items ahead of the fold, window %d", workers, n, c.maxAhead, 2*workers)
			}
		}
	}
}

// TestOrderedLowestIndexedErrorWins: a task failing late at a low
// index beats one failing early at a higher index; a failing source
// and a failing fold take their item's index. Every item below the
// failed index is folded, none above it, and the work started past a
// failure is bounded by the window.
func TestOrderedLowestIndexedErrorWins(t *testing.T) {
	checkNoLeaks(t)
	low, high := errors.New("task 30"), errors.New("task 70")
	for _, workers := range []int{1, 4} {
		var started atomic.Int64
		c := &counter{n: 10_000}
		err := Ordered(context.Background(), workers, c.next, func(i, item int) (int, error) {
			started.Add(1)
			switch i {
			case 30:
				time.Sleep(20 * time.Millisecond)
				return 0, low
			case 70:
				return 0, high
			}
			return item * item, nil
		}, c.fold(t))
		if !errors.Is(err, low) || c.folded != 30 {
			t.Errorf("workers=%d: err = %v after %d folds, want task 30's after 30", workers, err, c.folded)
		}
		if s := started.Load(); s > 30+2*int64(workers) {
			t.Errorf("workers=%d: %d tasks started, the window allows %d", workers, s, 30+2*workers)
		}

		readErr := errors.New("source fails at 12")
		c = &counter{n: 100, err: readErr, errAt: 12}
		if err := Ordered(context.Background(), workers, c.next, square, c.fold(t)); !errors.Is(err, readErr) || c.folded != 12 {
			t.Errorf("workers=%d: err = %v after %d folds, want the source's after 12", workers, err, c.folded)
		}
		c = &counter{n: 100, err: readErr, errAt: 12}
		err = Ordered(context.Background(), workers, c.next, func(i, item int) (int, error) {
			if i == 11 {
				return 0, low
			}
			return item * item, nil
		}, c.fold(t))
		if !errors.Is(err, low) {
			t.Errorf("workers=%d: err = %v, want task 11's ahead of the source's at 12", workers, err)
		}

		foldErr := errors.New("fold fails at 5")
		c = &counter{n: 100}
		fold := c.fold(t)
		err = Ordered(context.Background(), workers, c.next, square, func(i, r int) error {
			if i == 5 {
				return foldErr
			}
			return fold(i, r)
		})
		if !errors.Is(err, foldErr) || c.folded != 5 {
			t.Errorf("workers=%d: err = %v after %d folds, want the fold's after 5", workers, err, c.folded)
		}
	}
}

// TestOrderedPanicBecomesError: a panicking task is a *PanicError at
// its index, and the drain ends cleanly.
func TestOrderedPanicBecomesError(t *testing.T) {
	checkNoLeaks(t)
	for _, workers := range []int{1, 4} {
		c := &counter{n: 1000}
		err := Ordered(context.Background(), workers, c.next, func(i, item int) (int, error) {
			if i == 3 {
				panic("poisoned item 3")
			}
			return item * item, nil
		}, c.fold(t))
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 3 || pe.Value != "poisoned item 3" {
			t.Errorf("workers=%d: err = %v, want a *PanicError at 3", workers, err)
		}
	}
}

// TestOrderedCancellation: a pre-canceled drain reads nothing, and a
// drain canceled midway returns ctx.Err() promptly, with no goroutine
// left behind.
func TestOrderedCancellation(t *testing.T) {
	checkNoLeaks(t)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		c := &counter{n: 100}
		if err := Ordered(ctx, workers, c.next, square, c.fold(t)); !errors.Is(err, context.Canceled) || c.read != 0 {
			t.Errorf("workers=%d: pre-canceled drain returned %v after reading %d", workers, err, c.read)
		}

		ctx, cancel = context.WithCancel(context.Background())
		c = &counter{n: 1_000_000}
		fold := c.fold(t)
		done := make(chan error, 1)
		go func() {
			done <- Ordered(ctx, workers, c.next, func(_, item int) (int, error) {
				time.Sleep(100 * time.Microsecond)
				return item * item, nil
			}, func(i, r int) error {
				if i == 20 {
					cancel()
				}
				return fold(i, r)
			})
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: drain did not return after cancel", workers)
		}
		cancel()
	}
}
