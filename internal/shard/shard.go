// Package shard distributes a config-grid sweep — the paper's
// pathfinding use case, thousands of configurations priced on one
// parent workload — across processes that share nothing.
//
// The model is coordinator-free: a sweep over N configs is a fixed,
// deterministically ordered list of tasks (grid order, exactly the
// fold order of the sequential path), and a shard spec "i/n" owns
// every task whose sequence number is congruent to i-1 mod n. RunShard
// prices the tasks its spec owns and emits a per-shard manifest. With
// a cache, each task is one entry under its content address
// (sweep.PriceKey), the key RunSequential uses too, so a shard rerun
// after a crash resumes from the entries that landed. A reducer
// (Merge) folds any set of manifests covering the grid back into one
// run manifest, folding in grid order — so the merged result is
// byte-identical to the sequential run no matter how the grid was
// partitioned, how many workers ran, or how many times one crashed and
// was rerun.
//
// Nothing here is allowed to change results. The determinism suite in
// this package proves sharded == sequential byte-identity across
// profiles, seeds and shard counts, including a shard killed mid-run
// and fully overlapping shards.
package shard

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Spec identifies one shard of a sweep: Index in [0, Count). The
// external notation (flags, API, String) is 1-based — "3/8" is the
// third of eight shards, Spec{Index: 2, Count: 8}.
type Spec struct {
	Index int
	Count int
}

// ParseSpec parses the 1-based "i/n" notation.
func ParseSpec(s string) (Spec, error) {
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Spec{}, fmt.Errorf("shard: spec %q: want \"i/n\", e.g. 1/4", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(is))
	if err != nil {
		return Spec{}, fmt.Errorf("shard: spec %q: bad index: %v", s, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(ns))
	if err != nil {
		return Spec{}, fmt.Errorf("shard: spec %q: bad count: %v", s, err)
	}
	sp := Spec{Index: i - 1, Count: n}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Validate rejects out-of-range specs.
func (s Spec) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("shard: count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("shard: index %d outside 1..%d", s.Index+1, s.Count)
	}
	return nil
}

// String renders the 1-based notation ParseSpec accepts.
func (s Spec) String() string { return fmt.Sprintf("%d/%d", s.Index+1, s.Count) }

// Owns reports whether the shard owns grid task seq. Round-robin
// assignment: adjacent grid points land on different shards, so a
// grid whose cost varies smoothly across clocks load-balances without
// any coordinator.
func (s Spec) Owns(seq int) bool { return seq%s.Count == s.Index }

// Task is one unit of distributed work: pricing the parent workload on
// one grid configuration. Seq is the task's position in grid order —
// the one and only fold order — and Key is its content address in the
// shared cache, identical to what the sequential path stores under.
type Task struct {
	Seq    int
	Config gpu.Config
	Key    cache.Key
}

var errEmptyGrid = errors.New("shard: empty config grid")

// GridDigest fingerprints a config grid: the count and every config's
// cost-model fingerprint, in grid order. Manifests carry it so a merge
// can refuse to mix shards of different sweeps (or differently ordered
// grids — order is the fold order, so it is part of the identity).
type GridDigest [sha256.Size]byte

// String returns the digest in hex.
func (g GridDigest) String() string { return fmt.Sprintf("%x", g[:]) }

// Plan enumerates the sweep's tasks in grid order and digests the
// grid. Every participant — worker, sequential reference, merge
// validation — derives its view of the sweep from this one function.
func Plan(fp trace.Fingerprint, cfgs []gpu.Config) ([]Task, GridDigest, error) {
	if len(cfgs) == 0 {
		return nil, GridDigest{}, errEmptyGrid
	}
	h := sha256.New()
	var buf [8]byte
	putU64(buf[:], uint64(len(cfgs)))
	h.Write(buf[:])
	tasks := make([]Task, len(cfgs))
	for i, cfg := range cfgs {
		cfgFp := cfg.Fingerprint()
		h.Write(cfgFp[:])
		tasks[i] = Task{Seq: i, Config: cfg, Key: sweep.PriceKey(fp, cfg)}
	}
	var g GridDigest
	h.Sum(g[:0])
	return tasks, g, nil
}

func putU64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}
