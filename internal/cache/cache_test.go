package cache

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testKey(i int) Key { return NewKey("cache-test", 1).Int(int64(i)).Sum() }

type payload struct {
	N  int
	Xs []float64
}

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGetOrComputeNilCache(t *testing.T) {
	calls := 0
	v, err := GetOrCompute[int](context.Background(), nil, testKey(1), func() (int, error) {
		calls++
		return 42, nil
	})
	if err != nil || v != 42 || calls != 1 {
		t.Fatalf("v=%d err=%v calls=%d", v, err, calls)
	}
}

func TestGetOrComputeMissThenHit(t *testing.T) {
	c := mustCache(t, Config{})
	ctx := context.Background()
	calls := 0
	compute := func() (payload, error) {
		calls++
		return payload{N: 7, Xs: []float64{1, 2}}, nil
	}
	v1, err := GetOrCompute(ctx, c, testKey(1), compute)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := GetOrCompute(ctx, c, testKey(1), compute)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("computed %d times, want 1", calls)
	}
	if v1.N != v2.N || len(v1.Xs) != len(v2.Xs) || v1.Xs[0] != v2.Xs[0] {
		t.Fatalf("hit %+v differs from computed %+v", v2, v1)
	}
	st := c.Stats()
	if st.Hits != 1 || st.MemHits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 mem hit and 1 miss", st)
	}
}

// TestHitReturnsPrivateCopy is the aliasing guard the pipeline relies
// on: downstream stages normalize cached matrices in place, so a hit
// must never share memory with the stored entry or a previous caller.
func TestHitReturnsPrivateCopy(t *testing.T) {
	c := mustCache(t, Config{})
	ctx := context.Background()
	key := testKey(1)
	compute := func() (payload, error) { return payload{Xs: []float64{1, 2, 3}}, nil }
	v1, err := GetOrCompute(ctx, c, key, compute)
	if err != nil {
		t.Fatal(err)
	}
	v1.Xs[0] = 999 // caller mutation must not poison the cache
	v2, err := GetOrCompute(ctx, c, key, compute)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Xs[0] != 1 {
		t.Fatalf("cached value saw a caller's mutation: %v", v2.Xs)
	}
	v2.Xs[1] = -5
	v3, _ := GetOrCompute(ctx, c, key, compute)
	if v3.Xs[1] != 2 {
		t.Fatalf("second hit saw first hit's mutation: %v", v3.Xs)
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	c := mustCache(t, Config{})
	ctx := context.Background()
	calls := 0
	boom := errors.New("boom")
	compute := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 5, nil
	}
	if _, err := GetOrCompute(ctx, c, testKey(1), compute); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err := GetOrCompute(ctx, c, testKey(1), compute)
	if err != nil || v != 5 {
		t.Fatalf("v=%d err=%v after failed first compute", v, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (errors must not be cached)", calls)
	}
}

func TestDiskTierSurvivesProcessRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	key := testKey(1)
	want := payload{N: 9, Xs: []float64{3.25, -1}}

	c1 := mustCache(t, Config{Dir: dir})
	if _, err := GetOrCompute(ctx, c1, key, func() (payload, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	// A fresh Cache over the same dir models a new process: the memory
	// tier is empty, the disk tier serves the hit.
	c2 := mustCache(t, Config{Dir: dir})
	v, err := GetOrCompute(ctx, c2, key, func() (payload, error) {
		t.Fatal("computed despite a valid disk entry")
		return payload{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.N != want.N || v.Xs[0] != want.Xs[0] {
		t.Fatalf("disk hit %+v, want %+v", v, want)
	}
	st := c2.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("stats %+v, want 1 disk hit", st)
	}
	// The disk hit was promoted: a third lookup is a memory hit.
	if _, err := GetOrCompute(ctx, c2, key, func() (payload, error) { return payload{}, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats %+v, want promotion to memory", st)
	}
}

// entryFile locates the single on-disk entry of a one-entry cache.
func entryFile(t *testing.T, c *Cache, key Key) string {
	t.Helper()
	path := c.path(key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("expected entry file: %v", err)
	}
	return path
}

func TestCorruptDiskEntryFallsBackToRecompute(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"bit flip":  func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"garbage":   func(b []byte) []byte { return []byte("not an entry at all") },
		"bad gob": func(b []byte) []byte {
			// Valid framing around an undecodable payload.
			return encodeEntry([]byte{0xFF, 0xFE, 0xFD})
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			key := testKey(1)
			c1 := mustCache(t, Config{Dir: dir})
			if _, err := GetOrCompute(ctx, c1, key, func() (payload, error) {
				return payload{N: 1}, nil
			}); err != nil {
				t.Fatal(err)
			}
			path := entryFile(t, c1, key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			c2 := mustCache(t, Config{Dir: dir})
			calls := 0
			v, err := GetOrCompute(ctx, c2, key, func() (payload, error) {
				calls++
				return payload{N: 2}, nil
			})
			if err != nil {
				t.Fatalf("corrupt entry surfaced an error: %v", err)
			}
			if calls != 1 || v.N != 2 {
				t.Fatalf("calls=%d v=%+v, want recompute", calls, v)
			}
			if st := c2.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats %+v, want 1 corrupt", st)
			}
			// Recompute restored a valid entry.
			c3 := mustCache(t, Config{Dir: dir})
			v3, err := GetOrCompute(ctx, c3, key, func() (payload, error) {
				t.Fatal("entry not restored after corruption recovery")
				return payload{}, nil
			})
			if err != nil || v3.N != 2 {
				t.Fatalf("v=%+v err=%v after recovery", v3, err)
			}
		})
	}
}

func TestVersionSkewIsMissNotCorruption(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	key := testKey(1)
	c1 := mustCache(t, Config{Dir: dir})
	if _, err := GetOrCompute(ctx, c1, key, func() (payload, error) { return payload{N: 1}, nil }); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, c1, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(raw[4:6], EntrySchemaVersion+1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := mustCache(t, Config{Dir: dir})
	calls := 0
	if _, err := GetOrCompute(ctx, c2, key, func() (payload, error) {
		calls++
		return payload{N: 2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if calls != 1 || st.Corrupt != 0 || st.Misses != 1 {
		t.Fatalf("calls=%d stats=%+v, want plain miss without corruption", calls, st)
	}
}

// TestGetOrComputeNestedSameKey: a compute that looks its own key up
// again computes it there too and returns; the cache holds no flight a
// nested lookup could wait on. The outer store then wins.
func TestGetOrComputeNestedSameKey(t *testing.T) {
	c := mustCache(t, Config{Dir: t.TempDir()})
	ctx := context.Background()
	key := testKey(1)
	done := make(chan error, 1)
	go func() {
		v, err := GetOrCompute(ctx, c, key, func() (int, error) {
			inner, err := GetOrCompute(ctx, c, key, func() (int, error) { return 7, nil })
			return inner + 1, err
		})
		if err == nil && v != 8 {
			err = fmt.Errorf("outer value %d, want 8", v)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a nested GetOrCompute on its caller's key did not return")
	}
	v, err := GetOrCompute(ctx, c, key, func() (int, error) {
		t.Error("the stored entry was not served")
		return 0, nil
	})
	if err != nil || v != 8 {
		t.Fatalf("hit = %d, %v; want the outer store's 8", v, err)
	}
}

// TestGetOrComputeConcurrentStress hammers one cache from many
// goroutines while a reader snapshots Stats: every snapshot must keep
// the cross-field invariant Hits == MemHits + DiskHits.
func TestGetOrComputeConcurrentStress(t *testing.T) {
	c := mustCache(t, Config{Dir: t.TempDir(), MaxMemBytes: 1 << 16})
	ctx := context.Background()
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := c.Stats(); st.Hits != st.MemHits+st.DiskHits {
				t.Errorf("torn stats: hits %d != mem %d + disk %d", st.Hits, st.MemHits, st.DiskHits)
				return
			}
		}
	}()
	defer func() { close(stop); <-scraped }()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := testKey(i % 23)
				want := (i % 23) * 3
				v, err := GetOrCompute(ctx, c, key, func() (int, error) { return want, nil })
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if v != want {
					t.Errorf("g%d i%d: got %d want %d", g, i, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestEvictionCountsAndBudget(t *testing.T) {
	// Budget of ~4 small entries; insert many distinct keys.
	c := mustCache(t, Config{MaxMemBytes: 4 * (64 + memEntryOverhead)})
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if _, err := GetOrCompute(ctx, c, testKey(i), func() (payload, error) {
			return payload{Xs: make([]float64, 4)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("stats %+v, want evictions under a tight budget", st)
	}
	if c.MemBytes() > 4*(64+memEntryOverhead) {
		t.Fatalf("resident %d bytes exceed budget", c.MemBytes())
	}
}

func TestFromFlags(t *testing.T) {
	c, err := FromFlags("", 0)
	if err != nil || c != nil {
		t.Fatalf("unset flags: cache=%v err=%v, want nil,nil", c, err)
	}
	c, err = FromFlags("", 8)
	if err != nil || c == nil || c.Dir() != "" {
		t.Fatalf("mem-only flags: cache=%v err=%v", c, err)
	}
	dir := filepath.Join(t.TempDir(), "sub", "cache")
	c, err = FromFlags(dir, 0)
	if err != nil || c == nil || c.Dir() != dir {
		t.Fatalf("dir flags: cache=%v err=%v", c, err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("cache dir not created: %v", err)
	}
}

func TestNilCacheAccessors(t *testing.T) {
	var c *Cache
	if c.Stats() != (Stats{}) || c.Dir() != "" || c.MemBytes() != 0 || c.MemLen() != 0 {
		t.Fatal("nil cache accessors not zero")
	}
}
