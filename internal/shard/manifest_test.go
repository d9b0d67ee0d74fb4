package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/traceerr"
)

// frameRaw puts an arbitrary payload in the .s3dc container framing.
func frameRaw(payload []byte) []byte { return cache.EncodeFramed(payload) }

// testManifest builds a small, valid manifest by hand.
func testManifest() *Manifest {
	m := &Manifest{
		Version:  ManifestVersion,
		Grid:     GridDigest{1, 2, 3},
		GridSize: 6,
		Shard:    Spec{Index: 1, Count: 2},
	}
	m.Workload[0] = 0xab
	for _, seq := range []int{1, 3, 5} {
		e := Entry{
			Seq:          seq,
			CoreClockGHz: 1.0 + float64(seq)*0.25,
			MemClockGHz:  1.0,
			Frames:       16,
			TotalNs:      1e6 * float64(seq+1),
			Totals:       gpu.Totals{TotalNs: 1e6, ComputeNs: 6e5, MemoryNs: 4e5, TrafficBytes: 1 << 20},
		}
		e.ConfigFP[0] = byte(seq)
		e.FrameDigest[1] = byte(seq)
		e.Key[2] = byte(seq)
		m.Entries = append(m.Entries, e)
	}
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != m.Version || got.Workload != m.Workload || got.Grid != m.Grid ||
		got.GridSize != m.GridSize || got.Shard != m.Shard || len(got.Entries) != len(m.Entries) {
		t.Fatalf("round trip mutated header: %+v", got)
	}
	for i := range m.Entries {
		if got.Entries[i] != m.Entries[i] {
			t.Fatalf("entry %d mutated: %+v vs %+v", i, got.Entries[i], m.Entries[i])
		}
	}
	// Encoding must be deterministic: the manifest is the unit the
	// overlapping-shards test compares byte-for-byte.
	data2, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestDecodeManifestClassifiesCorruption(t *testing.T) {
	m := testManifest()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, mutate func([]byte) []byte, want error) {
		t.Helper()
		_, err := DecodeManifest(mutate(append([]byte(nil), data...)))
		if !errors.Is(err, want) {
			t.Fatalf("%s: got %v, want %v", name, err, want)
		}
	}
	check("truncated header", func(b []byte) []byte { return b[:10] }, traceerr.ErrTruncated)
	check("truncated payload", func(b []byte) []byte { return b[:len(b)-3] }, traceerr.ErrTruncated)
	check("bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, traceerr.ErrCorruptRecord)
	check("container version skew", func(b []byte) []byte { b[5] = 99; return b }, traceerr.ErrVersionMismatch)
	check("payload bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, traceerr.ErrCorruptRecord)
	check("trailing garbage", func(b []byte) []byte { return append(b, 0) }, traceerr.ErrCorruptRecord)
	// A well-framed container whose payload is not a JSON manifest.
	garbage := []byte("not a manifest")
	if _, err := DecodeManifest(frameRaw(garbage)); !errors.Is(err, traceerr.ErrCorruptRecord) {
		t.Fatalf("non-JSON payload: %v", err)
	}
}

// TestDecodeManifestRejectsV1Gob: testdata/manifest-v1.s3dm is
// testManifest as the version 1 build wrote it (a gob payload). A
// sweep's shards and its merge must run one build, so the file is
// rejected, under the taxonomy, instead of being misread.
func TestDecodeManifestRejectsV1Gob(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "manifest-v1.s3dm"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(data); !errors.Is(err, traceerr.ErrCorruptRecord) {
		t.Fatalf("v1 gob manifest: got %v, want ErrCorruptRecord", err)
	}
}

// TestManifestBytesIgnoreProcessHistory: a manifest's bytes depend
// only on its value. Gob numbers types per process in the order it
// first meets them, so the test first gob-encodes an unrelated type,
// which would have shifted a gob manifest's bytes, and then holds
// testManifest's encoding to a frozen digest.
func TestManifestBytesIgnoreProcessHistory(t *testing.T) {
	type unrelated struct {
		A int
		B []string
	}
	if err := gob.NewEncoder(io.Discard).Encode(unrelated{A: 1, B: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	data, err := testManifest().Encode()
	if err != nil {
		t.Fatal(err)
	}
	const want = "99abb1edf986bf868be9e913256333374feb0d739323b84b9e71e374682cf41c"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("manifest digest %s, want %s: the encoding changed", got, want)
	}
}

func TestDecodeManifestPayloadVersionSkew(t *testing.T) {
	m := testManifest()
	m.Version = ManifestVersion + 1
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(data); !errors.Is(err, traceerr.ErrVersionMismatch) {
		t.Fatalf("future manifest version: %v", err)
	}
}

func TestDecodeManifestRejectsInvalidStructure(t *testing.T) {
	for name, mutate := range map[string]func(*Manifest){
		"bad shard spec":    func(m *Manifest) { m.Shard = Spec{Index: 9, Count: 2} },
		"zero grid":         func(m *Manifest) { m.GridSize = 0 },
		"entries over grid": func(m *Manifest) { m.GridSize = 2 },
		"seq out of range":  func(m *Manifest) { m.Entries[2].Seq = 6 },
		"seq not ascending": func(m *Manifest) { m.Entries[1].Seq = 1 },
		"negative frames":   func(m *Manifest) { m.Entries[0].Frames = -1 },
	} {
		m := testManifest()
		mutate(m)
		data, err := m.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := DecodeManifest(data); !errors.Is(err, traceerr.ErrCorruptRecord) {
			t.Fatalf("%s: got %v, want ErrCorruptRecord", name, err)
		}
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := testManifest()
	path, err := m.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "shard-2of2.s3dm" {
		t.Fatalf("conventional name: %s", path)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != m.Shard || len(got.Entries) != len(m.Entries) {
		t.Fatalf("file round trip mutated manifest: %+v", got)
	}

	// A second shard's manifest lands beside it; ReadDir returns both
	// and no temp debris is left behind.
	m2 := testManifest()
	m2.Shard = Spec{Index: 0, Count: 2}
	if _, err := m2.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	ms, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("ReadDir found %d manifests, want 2", len(ms))
	}
	if ms[0].Shard != m2.Shard || ms[1].Shard != m.Shard {
		t.Fatalf("ReadDir order not name-sorted: %v then %v", ms[0].Shard, ms[1].Shard)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("directory has %d files, want the 2 manifests only", len(ents))
	}

	// ReadDir refuses an empty directory (a merge with nothing to fold
	// is an operator error, not an empty success).
	if _, err := ReadDir(t.TempDir()); err == nil {
		t.Fatal("ReadDir of empty dir succeeded")
	}
	// And surfaces corruption of any member.
	if err := os.WriteFile(filepath.Join(dir, "shard-9of9.s3dm"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); !errors.Is(err, traceerr.ErrTruncated) {
		t.Fatalf("ReadDir over junk member: %v", err)
	}
}

func TestFrameDigest(t *testing.T) {
	a := frameDigest([]float64{1, 2, 3})
	if a != frameDigest([]float64{1, 2, 3}) {
		t.Fatal("frameDigest not deterministic")
	}
	if a == frameDigest([]float64{3, 2, 1}) {
		t.Fatal("frameDigest ignores frame order")
	}
	if frameDigest(nil) != sha256.Sum256(nil) {
		t.Fatal("empty curve should hash to SHA-256 of empty input")
	}
}
