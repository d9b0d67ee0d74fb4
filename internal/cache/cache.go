// Package cache is the pipeline's content-addressed result cache: a
// two-tier (in-memory LRU + optional on-disk) store keyed by SHA-256
// of everything a result depends on — input workload fingerprint,
// algorithm version, and the relevant option fields.
//
// It exists because architecture pathfinding recomputes the same
// sub-results over and over: a config-grid sweep re-prices the same
// parent workload per configuration, and repeated runs re-cluster and
// re-price the same frames. The paper's whole argument is that
// redundant simulation work should be computed once; this package
// applies the same idea to the pipeline itself. Entries are stage
// products, not per-frame intermediates: a pipeline pass stores its
// clustering evaluation and parent pricing as one core.framepass
// entry, and a grid one sweep.price entry per configuration (DESIGN
// §9 lists the kinds).
//
// Design rules, enforced by tests:
//
//   - Caching must never change results. Entries store gob-encoded
//     bytes; every hit decodes a fresh private copy, so aliasing can
//     never couple a cached value to a caller's mutation. Warm runs
//     are byte-identical to cold runs (golden tests).
//   - A damaged cache degrades to recompute, never to failure. Disk
//     entries are checksummed (see entry.go); corruption is counted,
//     the file dropped, and the value recomputed. Errors classify
//     under the traceerr taxonomy.
//   - Concurrent workers computing the same key share one computation
//     (single-flight): the first caller computes, the rest wait and
//     decode the stored bytes.
//   - A canceled request never blocks on the disk. Disk reads and
//     writes are interruptible: cancellation returns immediately while
//     the operation completes in the background (never torn), and
//     Flush waits out anything abandoned — the drain hook a server
//     calls before exiting.
//   - Observability rides the existing internal/obs layer: hit, miss,
//     evict and corrupt counters land in the run's metrics registry,
//     and lookup time aggregates into one "cache.lookup" span per
//     stage.
package cache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// DefaultMaxMemBytes is the in-memory tier's budget when Config leaves
// it unset.
const DefaultMaxMemBytes = 256 << 20

// Config configures a Cache.
type Config struct {
	// Dir is the on-disk tier's root directory. Empty disables the
	// disk tier (memory-only cache). The directory is created if
	// missing.
	Dir string

	// MaxMemBytes budgets the in-memory tier (payload bytes plus a
	// small per-entry overhead). <= 0 selects DefaultMaxMemBytes.
	MaxMemBytes int64
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits      int64 // lookups served from either tier
	MemHits   int64 // ... of which from the in-memory tier
	DiskHits  int64 // ... of which from the disk tier
	Misses    int64 // lookups that fell through to compute
	Evictions int64 // in-memory entries evicted by the byte budget
	Corrupt   int64 // disk entries dropped for failed framing/checksum
	Errors    int64 // best-effort store/IO failures (cache kept going)
}

// Cache is a two-tier content-addressed result store. Safe for
// concurrent use. The zero value is not usable; construct with New. A
// nil *Cache is a valid no-op: GetOrCompute computes directly.
type Cache struct {
	dir string
	mem *lru

	// ioWG tracks disk operations that were started on behalf of a
	// request but abandoned by it (context canceled mid-read or
	// mid-write). The operation itself always runs to completion in the
	// background — a half-interrupted write would be indistinguishable
	// from corruption — and Flush waits for all of them.
	ioWG sync.WaitGroup

	flightMu sync.Mutex
	flight   map[Key]chan struct{}

	memHits, diskHits atomic.Int64 // Stats.Hits is their sum
	misses            atomic.Int64
	evictions         atomic.Int64
	corrupt           atomic.Int64
	errs              atomic.Int64
}

// New builds a cache, creating the disk directory when one is
// configured.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxMemBytes <= 0 {
		cfg.MaxMemBytes = DefaultMaxMemBytes
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	return &Cache{
		dir:    cfg.Dir,
		mem:    newLRU(cfg.MaxMemBytes),
		flight: map[Key]chan struct{}{},
	}, nil
}

// Stats snapshots the cache's counters (zero value on a nil cache).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	// Hits is derived from the per-tier counts rather than kept as its
	// own counter: separately loaded counters can tear under concurrent
	// lookups, and Hits == MemHits + DiskHits must hold in every
	// snapshot.
	mem, disk := c.memHits.Load(), c.diskHits.Load()
	return Stats{
		Hits:      mem + disk,
		MemHits:   mem,
		DiskHits:  disk,
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Corrupt:   c.corrupt.Load(),
		Errors:    c.errs.Load(),
	}
}

// Dir returns the disk tier's root ("" when memory-only).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// MemBytes returns the in-memory tier's current resident size.
func (c *Cache) MemBytes() int64 {
	if c == nil {
		return 0
	}
	return c.mem.bytes()
}

// MemLen returns the in-memory tier's resident entry count.
func (c *Cache) MemLen() int {
	if c == nil {
		return 0
	}
	return c.mem.len()
}

// path returns the disk file for a key, sharded on the first byte so
// no single directory accumulates every entry.
func (c *Cache) path(key Key) string {
	hex := key.String()
	return filepath.Join(c.dir, hex[:2], hex+".s3dc")
}

// lookup finds a key's payload in either tier, promoting disk hits
// into memory. The bool reports a hit; counters and obs metrics are
// updated here.
func (c *Cache) lookup(ctx context.Context, key Key) ([]byte, bool) {
	run := obs.RunFromContext(ctx)
	if data, ok := c.mem.get(key); ok {
		c.memHits.Add(1)
		run.Metrics().Counter("cache.hit").Inc()
		run.Metrics().Counter("cache.hit_mem").Inc()
		return data, true
	}
	if c.dir != "" {
		if data, ok := c.diskLookup(ctx, key); ok {
			c.diskHits.Add(1)
			run.Metrics().Counter("cache.hit").Inc()
			run.Metrics().Counter("cache.hit_disk").Inc()
			if n := c.mem.add(key, data); n > 0 {
				c.noteEvictions(ctx, n)
			}
			return data, true
		}
	}
	c.misses.Add(1)
	run.Metrics().Counter("cache.miss").Inc()
	return nil, false
}

// runInterruptible runs op, normally synchronously — but if ctx is
// canceled before op finishes, it returns ctx.Err() immediately and
// lets op run to completion in the background (tracked by ioWG, waited
// for by Flush). This is how a canceled request stops blocking on a
// slow disk without ever tearing a disk operation in half.
func (c *Cache) runInterruptible(ctx context.Context, op func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ctx.Done() == nil {
		// Uncancellable context (Background): no goroutine needed.
		op()
		return nil
	}
	done := make(chan struct{})
	c.ioWG.Add(1)
	go func() {
		defer c.ioWG.Done()
		defer close(done)
		op()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Flush blocks until every disk operation abandoned by a canceled
// request has run to completion. Servers call it during graceful
// drain so the on-disk tier is settled before the process exits; it is
// a no-op (and nil-safe) when nothing is pending.
func (c *Cache) Flush() {
	if c == nil {
		return
	}
	c.ioWG.Wait()
}

// diskLookup reads and validates one disk entry. A corrupt entry is
// counted, logged and removed — the caller sees a plain miss and
// recomputes; a version-skewed entry is left for the store path to
// overwrite. A context canceled mid-read surfaces as a miss without
// waiting for the disk; the caller's context check turns it into a
// prompt return instead of a recompute.
func (c *Cache) diskLookup(ctx context.Context, key Key) ([]byte, bool) {
	var (
		raw []byte
		err error
	)
	if rerr := c.runInterruptible(ctx, func() {
		raw, err = os.ReadFile(c.path(key))
	}); rerr != nil {
		return nil, false
	}
	if err != nil {
		if !os.IsNotExist(err) {
			c.errs.Add(1)
			obs.RunFromContext(ctx).Logger().Warn("cache read failed", "key", key.String(), "err", err)
		}
		return nil, false
	}
	payload, err := decodeEntry(raw)
	if err != nil {
		if errors.Is(err, traceerr.ErrVersionMismatch) {
			// Not corruption: written by a different build. Miss.
			return nil, false
		}
		c.corrupt.Add(1)
		run := obs.RunFromContext(ctx)
		run.Metrics().Counter("cache.corrupt").Inc()
		run.Logger().Warn("corrupt cache entry dropped, recomputing",
			"key", key.String(), "err", err)
		if rmErr := os.Remove(c.path(key)); rmErr != nil && !os.IsNotExist(rmErr) {
			c.errs.Add(1)
		}
		return nil, false
	}
	return payload, true
}

// store admits a payload to both tiers. Store failures never fail the
// computation: they are counted and logged, and the caller keeps the
// value it just computed.
func (c *Cache) store(ctx context.Context, key Key, payload []byte) {
	if n := c.mem.add(key, payload); n > 0 {
		c.noteEvictions(ctx, n)
	}
	if c.dir == "" {
		return
	}
	// On cancellation runInterruptible returns immediately and the
	// write finishes in the background (Flush waits for it); the
	// closure does its own accounting so the abandoned path still
	// counts failures.
	c.runInterruptible(ctx, func() {
		if err := c.diskStore(key, payload); err != nil {
			c.errs.Add(1)
			obs.RunFromContext(ctx).Logger().Warn("cache write failed", "key", key.String(), "err", err)
		}
	})
}

// diskStore writes an entry atomically: temp file in the same
// directory, then rename, so readers only ever see complete entries.
func (c *Cache) diskStore(key Key, payload []byte) error {
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(encodeEntry(payload))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func (c *Cache) noteEvictions(ctx context.Context, n int) {
	c.evictions.Add(int64(n))
	obs.RunFromContext(ctx).Metrics().Counter("cache.evict").Add(int64(n))
}

// join registers interest in computing a key. The first caller becomes
// the leader (leader == true) and must call leave when done; others
// get the leader's done channel to wait on.
func (c *Cache) join(key Key) (leader bool, done chan struct{}) {
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	if ch, ok := c.flight[key]; ok {
		return false, ch
	}
	ch := make(chan struct{})
	c.flight[key] = ch
	return true, ch
}

// leave ends a leader's flight, releasing every waiter.
func (c *Cache) leave(key Key, done chan struct{}) {
	c.flightMu.Lock()
	delete(c.flight, key)
	c.flightMu.Unlock()
	close(done)
}

// GetOrCompute returns the value for key, computing and storing it on
// a miss. A nil cache computes directly. Hits gob-decode a fresh copy,
// so the caller owns the result outright. Concurrent callers of the
// same key on the same cache share one computation: the leader
// computes and stores, waiters decode the stored bytes (and compute
// themselves only if the leader failed to store, so dedup is
// best-effort and never adds a failure mode).
//
// Lookup time (not compute time) aggregates into a "cache.lookup"
// merged span under the stage span in ctx, when a run is attached.
func GetOrCompute[T any](ctx context.Context, c *Cache, key Key, compute func() (T, error)) (T, error) {
	if c == nil {
		return compute()
	}
	sp := obs.SpanFromContext(ctx).MergedChild("cache.lookup")
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		data, ok := c.lookup(ctx, key)
		if ok {
			var v T
			err := decodePayload(data, &v)
			sp.AddDuration(time.Since(t0))
			sp.AddItems(1)
			if err == nil {
				return v, nil
			}
			// Undecodable payload under a matching key: the stored
			// type does not match the requested one (a kind reused
			// across types, or bit rot inside a gob). Drop and
			// recompute.
			c.corrupt.Add(1)
			run := obs.RunFromContext(ctx)
			run.Metrics().Counter("cache.corrupt").Inc()
			run.Logger().Warn("cache payload undecodable, recomputing", "key", key.String(), "err", err)
			c.remove(key)
		} else {
			sp.AddDuration(time.Since(t0))
			sp.AddItems(1)
		}
		// A canceled context must not fall through to compute: the
		// lookup above may have been cut short mid-disk-read, and the
		// computation would only burn cycles before its own first
		// cancellation check.
		if err := ctx.Err(); err != nil {
			var zero T
			return zero, err
		}

		leader, done := c.join(key)
		if !leader && attempt == 0 {
			// Someone else is computing this key: wait for them, then
			// retry the lookup once. If their store failed we compute
			// ourselves on the next pass (join again, possibly as
			// leader).
			select {
			case <-done:
				continue
			case <-ctx.Done():
				var zero T
				return zero, ctx.Err()
			}
		}
		if !leader {
			// Second collision; just compute without dedup rather
			// than risk waiting forever behind repeated failures.
			return compute()
		}
		v, err := compute()
		if err != nil {
			c.leave(key, done)
			return v, err
		}
		payload, encErr := encodePayload(&v)
		if encErr == nil {
			c.store(ctx, key, payload)
		} else {
			c.errs.Add(1)
			obs.RunFromContext(ctx).Logger().Warn("cache encode failed", "key", key.String(), "err", encErr)
		}
		c.leave(key, done)
		return v, nil
	}
}

// remove drops a key from both tiers.
func (c *Cache) remove(key Key) {
	c.mem.remove(key)
	if c.dir != "" {
		if err := os.Remove(c.path(key)); err != nil && !os.IsNotExist(err) {
			c.errs.Add(1)
		}
	}
}

// binding carries the active cache and the fingerprint of the workload
// the surrounding pipeline run operates on.
type binding struct {
	c  *Cache
	fp trace.Fingerprint
}

type bindingKey struct{}

// WithWorkload returns ctx carrying (cache, workload fingerprint) for
// the pipeline stages below: the core frame pass and sweep pricing key
// their entries on the bound fingerprint. A nil cache returns ctx
// unchanged.
func WithWorkload(ctx context.Context, c *Cache, fp trace.Fingerprint) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, bindingKey{}, binding{c: c, fp: fp})
}

// ForWorkload returns the cache and workload fingerprint bound by
// WithWorkload, or ok == false when the run is uncached.
func ForWorkload(ctx context.Context) (c *Cache, fp trace.Fingerprint, ok bool) {
	b, ok := ctx.Value(bindingKey{}).(binding)
	return b.c, b.fp, ok
}
