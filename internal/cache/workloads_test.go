package cache

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracetest"
)

// TestWorkloadStoreRoundTrip: store then rescan returns a workload with
// the same fingerprint — the identity the registry rebuild keys on.
func TestWorkloadStoreRoundTrip(t *testing.T) {
	c, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	w := tracetest.Tiny()
	if err := c.StoreWorkload(w); err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadWorkloads(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("loaded %d workloads, want 1", len(got))
	}
	if got[0].Fingerprint() != w.Fingerprint() {
		t.Fatalf("round trip changed fingerprint: %s -> %s", w.Fingerprint(), got[0].Fingerprint())
	}
	if got[0].Name != w.Name || len(got[0].Frames) != len(w.Frames) {
		t.Fatalf("round trip lost shape: name=%q frames=%d", got[0].Name, len(got[0].Frames))
	}
}

// TestWorkloadStoreReadsV2Entries: an entry older builds persisted
// holds a v2 container (gob payloads); it must still load, DeepEqual
// to the workload it was written from.
func TestWorkloadStoreReadsV2Entries(t *testing.T) {
	c, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "tiny.v2.stream"))
	if err != nil {
		t.Fatal(err)
	}
	w := tracetest.Tiny()
	if err := os.MkdirAll(c.workloadsDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.workloadPath(w.Fingerprint()), encodeEntry(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadWorkloads(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], w) {
		t.Fatalf("v2 entry: loaded %d workloads, want Tiny", len(got))
	}
}

// TestWorkloadStoreIdempotent: storing the same workload twice leaves
// one file and does not rewrite it.
func TestWorkloadStoreIdempotent(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := tracetest.Tiny()
	if err := c.StoreWorkload(w); err != nil {
		t.Fatal(err)
	}
	path := c.workloadPath(w.Fingerprint())
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreWorkload(w); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("second store rewrote the file; content addressing should skip it")
	}
	files, err := filepath.Glob(filepath.Join(dir, "workloads", "*"+workloadExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("store holds %d files, want 1: %v", len(files), files)
	}
}

// TestWorkloadStoreNilAndMemoryOnly: persistence is a property of the
// disk tier — nil caches and memory-only caches no-op on store and
// return nothing on load.
func TestWorkloadStoreNilAndMemoryOnly(t *testing.T) {
	var nilCache *Cache
	if err := nilCache.StoreWorkload(tracetest.Tiny()); err != nil {
		t.Fatalf("nil store: %v", err)
	}
	if got, err := nilCache.LoadWorkloads(context.Background()); err != nil || got != nil {
		t.Fatalf("nil load: %v, %v", got, err)
	}
	mem, err := New(Config{MaxMemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.StoreWorkload(tracetest.Tiny()); err != nil {
		t.Fatalf("memory-only store: %v", err)
	}
	if got, err := mem.LoadWorkloads(context.Background()); err != nil || len(got) != 0 {
		t.Fatalf("memory-only load: %v, %v", got, err)
	}
}

// TestWorkloadStoreDropsCorruptFiles: a truncated store file and a
// framed file whose payload is not a stream are both counted corrupt,
// removed from disk and omitted from the scan — never returned, never
// fatal.
func TestWorkloadStoreDropsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := tracetest.Tiny()
	if err := c.StoreWorkload(w); err != nil {
		t.Fatal(err)
	}
	good := c.workloadPath(w.Fingerprint())

	// Arm 1: torn write — valid frame header, truncated payload.
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(filepath.Dir(good), "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"+workloadExt)
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Arm 2: intact framing around a payload that is not a stream.
	garbage := filepath.Join(filepath.Dir(good), "ffeeddccbbaa99887766554433221100ffeeddccbbaa99887766554433221100"+workloadExt)
	if err := os.WriteFile(garbage, encodeEntry([]byte("not a stream container")), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := c.LoadWorkloads(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Fingerprint() != w.Fingerprint() {
		t.Fatalf("scan over damaged store returned %d workloads, want the 1 intact one", len(got))
	}
	if n := c.Stats().Corrupt; n != 2 {
		t.Fatalf("Corrupt = %d, want 2 (torn + garbage)", n)
	}
	for _, p := range []string{torn, garbage} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("damaged file %s not removed", filepath.Base(p))
		}
	}
	if _, err := os.Stat(good); err != nil {
		t.Fatalf("intact file removed: %v", err)
	}
}

// TestWorkloadStoreRefilesMisnamedFiles: an intact workload stored
// under a name that is not its fingerprint, as every file an older
// fingerprintVersion wrote is, is moved to its fingerprint's name and
// returned, once, beside a copy already filed there; nothing counts
// corrupt and a second scan finds the store settled.
func TestWorkloadStoreRefilesMisnamedFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a := tracetest.Tiny()
	b := tracetest.Tiny()
	b.Frames[0].Draws[0].VertexCount += 7
	if err := c.StoreWorkload(a); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreWorkload(b); err != nil {
		t.Fatal(err)
	}
	// a is filed under its name and an old one; b only under an old one.
	store := c.workloadsDir()
	oldA := filepath.Join(store, "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"+workloadExt)
	oldB := filepath.Join(store, "ffeeddccbbaa99887766554433221100ffeeddccbbaa99887766554433221100"+workloadExt)
	raw, err := os.ReadFile(c.workloadPath(a.Fingerprint()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldA, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.workloadPath(b.Fingerprint()), oldB); err != nil {
		t.Fatal(err)
	}

	want := []*trace.Workload{a, b}
	if a.Fingerprint().String() > b.Fingerprint().String() {
		want[0], want[1] = b, a
	}
	for scan := 1; scan <= 2; scan++ {
		got, err := c.LoadWorkloads(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan %d returned %d workloads, want a and b once each in fingerprint order", scan, len(got))
		}
		files, err := filepath.Glob(filepath.Join(store, "*"+workloadExt))
		if err != nil {
			t.Fatal(err)
		}
		wantFiles := []string{c.workloadPath(want[0].Fingerprint()), c.workloadPath(want[1].Fingerprint())}
		if !reflect.DeepEqual(files, wantFiles) {
			t.Fatalf("scan %d left store files %v, want %v", scan, files, wantFiles)
		}
	}
	if st := c.Stats(); st.Corrupt != 0 || st.Errors != 0 {
		t.Fatalf("refiling counted Corrupt=%d Errors=%d, want 0 and 0", st.Corrupt, st.Errors)
	}
}

// TestWorkloadStoreCanceledScan: a dead context stops the rescan.
func TestWorkloadStoreCanceledScan(t *testing.T) {
	c, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreWorkload(tracetest.Tiny()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.LoadWorkloads(ctx); err == nil {
		t.Fatal("canceled scan should fail")
	}
}
