package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/tracetest"
)

// TestRestoreWorkloadsAfterRestart is registry persistence end to end,
// in-process: upload to a server with a disk cache, build a second
// server over the same directory (the relaunch), and require it to
// list and serve the workload without any re-upload.
func TestRestoreWorkloadsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestServer(t, Options{Cache: c1})
	fp := upload(t, s1.Handler(), streamBody(t, tracetest.Tiny()))

	c2, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Options{Cache: c2})
	restored, err := s2.RestoreWorkloads(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d workloads, want 1", restored)
	}
	h := s2.Handler()

	rec := do(h, "GET", "/v1/workloads/"+fp, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("restored workload lookup: status %d: %s", rec.Code, rec.Body)
	}
	body := fmt.Sprintf(`{"workload": %q, "core_clocks": [0.5, 1.0], "shard": "1/1"}`, fp)
	rec = do(h, "POST", "/v1/shard/sweep", []byte(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("shard dispatch against restored registry: status %d: %s", rec.Code, rec.Body)
	}

	// The restored answer must match the original server's, point for
	// point — restoration round-trips through the canonical stream
	// encoding and may not perturb results.
	ref := do(s1.Handler(), "POST", "/v1/shard/sweep", []byte(body))
	if ref.Code != http.StatusOK {
		t.Fatalf("reference dispatch: status %d: %s", ref.Code, ref.Body)
	}
	var got, want ShardSweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ref.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Manifest, want.Manifest) {
		t.Fatal("restored server's shard manifest differs from the original server's")
	}
}

// TestRestoreWorkloadsIdempotent: restoring into a registry that
// already holds the workload registers nothing new.
func TestRestoreWorkloadsIdempotent(t *testing.T) {
	dir := t.TempDir()
	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Cache: c})
	upload(t, s.Handler(), streamBody(t, tracetest.Tiny()))
	if n, err := s.RestoreWorkloads(context.Background()); err != nil || n != 0 {
		t.Fatalf("restore into a live registry: %d, %v; want 0, nil", n, err)
	}
}

// TestRestoreWorkloadsWithoutCache: no cache (or a memory-only one)
// means nothing persisted — restore is a clean zero.
func TestRestoreWorkloadsWithoutCache(t *testing.T) {
	s := newTestServer(t, Options{})
	if n, err := s.RestoreWorkloads(context.Background()); err != nil || n != 0 {
		t.Fatalf("cacheless restore: %d, %v; want 0, nil", n, err)
	}
}

// TestRestoreWorkloadsSkipsCorrupt: a damaged store file is dropped by
// the cache layer; restore still succeeds with the intact remainder.
func TestRestoreWorkloadsSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	c1, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestServer(t, Options{Cache: c1})
	upload(t, s1.Handler(), streamBody(t, tracetest.Tiny()))

	stores, err := filepath.Glob(filepath.Join(dir, "workloads", "*.s3dw"))
	if err != nil || len(stores) != 1 {
		t.Fatalf("workload store: %v, %v", stores, err)
	}
	bogus := filepath.Join(dir, "workloads",
		"00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff.s3dw")
	if err := os.WriteFile(bogus, []byte("not a framed workload"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Options{Cache: c2})
	if n, err := s2.RestoreWorkloads(context.Background()); err != nil || n != 1 {
		t.Fatalf("restore over damaged store: %d, %v; want 1, nil", n, err)
	}
}

// TestRestoreWorkloadsRefilesOldNames: a workload persisted under a
// name that is not its fingerprint, as a build with another
// fingerprintVersion filed it, is restored and served under its
// fingerprint, the server's run counts the refile, and the store keeps
// it under that name alone.
func TestRestoreWorkloadsRefilesOldNames(t *testing.T) {
	dir := t.TempDir()
	c1, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fp := upload(t, newTestServer(t, Options{Cache: c1}).Handler(), streamBody(t, tracetest.Tiny()))
	current := filepath.Join(dir, "workloads", fp+".s3dw")
	old := filepath.Join(dir, "workloads",
		"00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff.s3dw")
	if err := os.Rename(current, old); err != nil {
		t.Fatal(err)
	}

	c2, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Options{Cache: c2})
	if n, err := s2.RestoreWorkloads(context.Background()); err != nil || n != 1 {
		t.Fatalf("restore over an old name: %d, %v; want 1, nil", n, err)
	}
	if rec := do(s2.Handler(), "GET", "/v1/workloads/"+fp, nil); rec.Code != http.StatusOK {
		t.Fatalf("refiled workload lookup: status %d: %s", rec.Code, rec.Body)
	}
	if n := s2.run.Metrics().Counter("cache.workload_refiled").Value(); n != 1 {
		t.Fatalf("cache.workload_refiled = %d in the server's run, want 1", n)
	}
	stores, err := filepath.Glob(filepath.Join(dir, "workloads", "*.s3dw"))
	if err != nil || len(stores) != 1 || stores[0] != current {
		t.Fatalf("workload store after restore: %v, %v; want only %s", stores, err, current)
	}
}

// TestRestoreWorkloadsRegistryCap: a registry smaller than the store
// restores what fits and keeps starting — partial service beats none.
func TestRestoreWorkloadsRegistryCap(t *testing.T) {
	dir := t.TempDir()
	c1, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestServer(t, Options{Cache: c1})
	w1 := tracetest.Tiny()
	w2 := tracetest.Tiny()
	w2.Frames[0].Draws[0].VertexCount += 7 // distinct content, distinct fingerprint
	if upload(t, s1.Handler(), streamBody(t, w1)) == upload(t, s1.Handler(), streamBody(t, w2)) {
		t.Fatal("fixtures collided; the cap test needs two workloads")
	}

	c2, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Options{Cache: c2, MaxWorkloads: 1})
	n, err := s2.RestoreWorkloads(context.Background())
	if err != nil {
		t.Fatalf("capped restore must not fail startup: %v", err)
	}
	if n != 1 {
		t.Fatalf("capped restore registered %d, want 1", n)
	}
}
