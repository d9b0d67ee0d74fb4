package shard

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/trace"
)

// fullManifest runs one cacheless full-grid worker and returns its
// manifest — the complete entry set every partition below is carved
// from.
func fullManifest(t *testing.T, w *trace.Workload, cfgs []gpu.Config) *Manifest {
	t.Helper()
	m, _, err := RunShard(context.Background(), nil, w, w.Fingerprint(), cfgs, Spec{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// carve builds a manifest holding the given entry subset (any order;
// carve sorts by seq as a well-formed shard would).
func carve(full *Manifest, spec Spec, seqs []int) *Manifest {
	bySeq := map[int]Entry{}
	for _, e := range full.Entries {
		bySeq[e.Seq] = e
	}
	m := &Manifest{
		Version:  full.Version,
		Workload: full.Workload,
		Grid:     full.Grid,
		GridSize: full.GridSize,
		Shard:    spec,
	}
	sorted := append([]int(nil), seqs...)
	sort.Ints(sorted)
	prev := -1
	for _, s := range sorted {
		if s == prev {
			continue
		}
		prev = s
		m.Entries = append(m.Entries, bySeq[s])
	}
	return m
}

// TestMergeDigestInvariantUnderAnyPartition is the reducer's property
// test: however the grid's tasks are scattered across manifests —
// round-robin, contiguous, random, lopsided (empty shards included),
// or overlapping (tasks present in several shards) — Merge folds them
// to the same digest as the trivial single-shard merge, which the
// determinism suite separately proves equal to the sequential run.
func TestMergeDigestInvariantUnderAnyPartition(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(4, 3)
	full := fullManifest(t, w, cfgs)
	ref, err := Merge([]*Manifest{full})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	n := len(full.Entries)
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(5)
		groups := make([][]int, k)
		for seq := 0; seq < n; seq++ {
			// Home shard, plus a chance of duplication into another —
			// the overlapping-shards case Merge must reconcile.
			home := rng.Intn(k)
			groups[home] = append(groups[home], seq)
			if rng.Intn(4) == 0 {
				dup := rng.Intn(k)
				groups[dup] = append(groups[dup], seq)
			}
		}
		var ms []*Manifest
		for i, g := range groups {
			ms = append(ms, carve(full, Spec{Index: i, Count: k}, g))
		}
		// Shuffle merge input order too: the fold must not care which
		// manifest is read first.
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		got, err := Merge(ms)
		if err != nil {
			t.Fatalf("trial %d (%d groups): %v", trial, k, err)
		}
		if got.Digest != ref.Digest {
			t.Fatalf("trial %d (%d groups): digest %s != reference %s", trial, k, got.Digest, ref.Digest)
		}
	}
}

func TestMergeRejectsMissingTasks(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(2, 2)
	full := fullManifest(t, w, cfgs)
	holed := carve(full, Spec{Index: 0, Count: 1}, []int{0, 1, 3}) // task 2 missing
	_, err := Merge([]*Manifest{holed})
	if err == nil || !strings.Contains(err.Error(), "task 2") {
		t.Fatalf("merge with a gap: %v", err)
	}
}

func TestMergeRejectsConflictingDuplicates(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(2, 2)
	full := fullManifest(t, w, cfgs)
	a := carve(full, Spec{Index: 0, Count: 2}, []int{0, 1, 2, 3})
	b := carve(full, Spec{Index: 1, Count: 2}, []int{2, 3})
	b.Entries[0].TotalNs += 1 // shard 2/2 "computed" task 2 differently
	if _, err := Merge([]*Manifest{a, b}); err == nil || !strings.Contains(err.Error(), "task 2") {
		t.Fatalf("merge with conflicting duplicates: %v", err)
	}
}

func TestMergeRejectsMixedSweeps(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(2, 2)
	full := fullManifest(t, w, cfgs)
	a := carve(full, Spec{Index: 0, Count: 2}, []int{0, 1, 2, 3})

	other := carve(full, Spec{Index: 1, Count: 2}, nil)
	other.Grid[0] ^= 0xff
	if _, err := Merge([]*Manifest{a, other}); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("merge across grids: %v", err)
	}

	alien := carve(full, Spec{Index: 1, Count: 2}, nil)
	alien.Workload[0] ^= 0xff
	if _, err := Merge([]*Manifest{a, alien}); err == nil || !strings.Contains(err.Error(), "workload") {
		t.Fatalf("merge across workloads: %v", err)
	}

	skewed := carve(full, Spec{Index: 1, Count: 2}, nil)
	skewed.Version = ManifestVersion + 1
	if _, err := Merge([]*Manifest{a, skewed}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("merge across versions: %v", err)
	}

	if _, err := Merge(nil); err == nil {
		t.Fatal("merge of zero manifests succeeded")
	}
}
