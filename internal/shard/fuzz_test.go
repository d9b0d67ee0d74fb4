package shard

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/traceerr"
)

// FuzzShardManifestDecode drives arbitrary bytes through the manifest
// decoder — the same container framing as .s3dc cache entries, then a
// JSON payload, then the structural invariants. The contract: never
// panic, classify every rejection under the traceerr taxonomy, and
// accept only manifests whose invariants hold and which re-encode
// byte-identically (a decoded manifest must be indistinguishable from
// a freshly written one, or a merge could fold what a worker never
// wrote).
func FuzzShardManifestDecode(f *testing.F) {
	valid := testManifest()
	if data, err := valid.Encode(); err == nil {
		f.Add(data)
		f.Add(data[:10])
		f.Add(data[:len(data)-5])
		flip := append([]byte(nil), data...)
		flip[len(flip)-1] ^= 0x80
		f.Add(flip)
		f.Add(append(append([]byte(nil), data...), 0xAA))
	}
	empty := &Manifest{Version: ManifestVersion, GridSize: 3, Shard: Spec{Index: 0, Count: 2}}
	if data, err := empty.Encode(); err == nil {
		f.Add(data)
	}
	skew := testManifest()
	skew.Version = ManifestVersion + 1
	if data, err := skew.Encode(); err == nil {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("S3DC"))
	f.Add(frameRaw(nil))
	f.Add(frameRaw([]byte("not a manifest")))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, traceerr.ErrTruncated) &&
				!errors.Is(err, traceerr.ErrCorruptRecord) &&
				!errors.Is(err, traceerr.ErrVersionMismatch) &&
				!errors.Is(err, traceerr.ErrTooLarge) {
				t.Fatalf("rejection outside the taxonomy: %v", err)
			}
			return
		}
		// Accepted: every invariant the merge path leans on must hold.
		if m.Version != ManifestVersion {
			t.Fatalf("decoder accepted version %d", m.Version)
		}
		if err := m.validate(); err != nil {
			t.Fatalf("decoder accepted an invalid manifest: %v", err)
		}
		reenc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		m2, err := DecodeManifest(reenc)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if m2.Version != m.Version || m2.Workload != m.Workload || m2.Grid != m.Grid ||
			m2.GridSize != m.GridSize || m2.Shard != m.Shard || len(m2.Entries) != len(m.Entries) {
			t.Fatal("round trip mutated the manifest header")
		}
		for i := range m.Entries {
			if m.Entries[i] != m2.Entries[i] {
				t.Fatalf("round trip mutated entry %d", i)
			}
		}
		// JSON decoding accepts non-canonical input (spacing, key case,
		// number spellings), so the re-encoding need not equal the
		// arbitrary input — but encoding the same value twice must be
		// stable (the overlapping-shards byte-equality contract).
		reenc2, err := m2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reenc, reenc2) {
			t.Fatal("Encode is not deterministic")
		}
	})
}
