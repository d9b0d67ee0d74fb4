package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// flightGroup coalesces identical in-flight queries: the first caller
// for a key becomes the leader and computes; followers arriving while
// it runs wait for the leader's bytes instead of recomputing. Distinct
// from the result cache (which dedups across time), this dedups across
// concurrency — a thundering herd on a cold key costs one computation.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	waiters atomic.Int64 // followers currently parked on done
	data    []byte
	err     error
}

// do returns the response bytes for key, computing via fn only when no
// identical call is in flight; shared reports whether this caller rode
// a leader's computation. A follower whose ctx dies stops waiting (the
// leader keeps going for the others). Leader errors are shared too —
// the herd gets the same failure, not a retry storm — except the
// leader's own cancellation or deadline: that ended the leader's
// request, not the computation, so a live follower calls do again and
// joins the current flight or leads a new one.
func (g *flightGroup) do(ctx context.Context, key string, fn func() ([]byte, error)) (data []byte, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.waiters.Add(1)
		select {
		case <-c.done:
		case <-ctx.Done():
		}
		c.waiters.Add(-1)
		if err := ctx.Err(); err != nil {
			return nil, true, err
		}
		if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
			return g.do(ctx, key, fn)
		}
		return c.data, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.data, c.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.data, false, c.err
}
