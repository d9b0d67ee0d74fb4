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
// entry, a grid one sweep.price entry per configuration, and subsetd
// one entry per answer, the JSON bytes it sent (DESIGN §9 lists the
// kinds). The cache is always an argument: every caller passes the
// *Cache it uses to GetOrCompute.
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
	return &Cache{dir: cfg.Dir, mem: newLRU(cfg.MaxMemBytes)}, nil
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

// GetOrCompute returns the value for key, computing and storing it on
// a miss. A nil cache computes directly. Hits gob-decode a fresh copy,
// so the caller owns the result outright. Concurrent misses on one key
// each compute and store the same bytes: the LRU refreshes the entry
// and the disk store renames a complete file over it, so the last
// store wins and every reader sees a whole entry. Callers that must
// not compute twice coalesce above the cache (subsetd's flight group),
// and a compute may look its own key up without blocking.
//
// Lookup time (not compute time) aggregates into a "cache.lookup"
// merged span under the stage span in ctx, when a run is attached.
func GetOrCompute[T any](ctx context.Context, c *Cache, key Key, compute func() (T, error)) (T, error) {
	if c == nil {
		return compute()
	}
	sp := obs.SpanFromContext(ctx).MergedChild("cache.lookup")
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
		// Undecodable payload under a matching key: the stored type does
		// not match the requested one (a kind reused across types, or bit
		// rot inside a gob). Drop and recompute.
		c.corrupt.Add(1)
		run := obs.RunFromContext(ctx)
		run.Metrics().Counter("cache.corrupt").Inc()
		run.Logger().Warn("cache payload undecodable, recomputing", "key", key.String(), "err", err)
		c.remove(key)
	} else {
		sp.AddDuration(time.Since(t0))
		sp.AddItems(1)
	}
	// A canceled context must not fall through to compute: the lookup
	// above may have been cut short mid-disk-read, and the computation
	// would only burn cycles before its own first cancellation check.
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	payload, encErr := encodePayload(&v)
	if encErr == nil {
		c.store(ctx, key, payload)
	} else {
		c.errs.Add(1)
		obs.RunFromContext(ctx).Logger().Warn("cache encode failed", "key", key.String(), "err", encErr)
	}
	return v, nil
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
