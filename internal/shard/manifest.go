package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// ManifestVersion versions the manifest payload schema. A version skew
// classifies as traceerr.ErrVersionMismatch on decode, so a merge
// never silently folds manifests written by an incompatible build.
// Version 2 payloads are JSON; a version 1 (gob) payload does not
// parse and classifies as traceerr.ErrCorruptRecord.
const ManifestVersion = 2

// Entry records one completed task: the measured pricing of one grid
// configuration, plus enough identity (config fingerprint, cache key,
// per-frame digest) for a merge to prove that two shards that both
// priced the same task produced the same bytes. Entries are comparable with ==,
// which is exactly the duplicate-consistency check Merge runs.
type Entry struct {
	// Seq is the task's grid position — the fold order.
	Seq int

	// CoreClockGHz / MemClockGHz label the config for human output;
	// ConfigFP is its cost-model identity.
	CoreClockGHz float64
	MemClockGHz  float64
	ConfigFP     [sha256.Size]byte

	// Key is the content address the result is cached under
	// (sweep.PriceKey).
	Key cache.Key

	// Frames is the parent's frame count; FrameDigest is the SHA-256
	// of the per-frame nanosecond curve (IEEE-754 bits in frame
	// order) — byte-exactness of the full curve, not just the totals.
	Frames      int
	FrameDigest [sha256.Size]byte

	// TotalNs and every Totals field fold frames in order, each frame
	// its draws in order — bit-identical to the sequential Simulator
	// paths, so Totals.TotalNs == TotalNs.
	TotalNs float64
	Totals  gpu.Totals
}

// Manifest is one shard's completed work: which sweep it belongs to
// (workload fingerprint + grid digest), which shard spec ran, and an
// entry per owned task in grid order. Its on-disk form reuses the
// cache's .s3dc container framing (magic, schema version, length,
// SHA-256 over the payload), so a torn or tampered manifest is
// detected the same way a torn cache entry is.
type Manifest struct {
	Version  int
	Workload trace.Fingerprint
	Grid     GridDigest
	GridSize int
	Shard    Spec
	Entries  []Entry
}

// Encode serializes the manifest: a JSON payload inside the framed
// container. The schema has no maps, and every field is an int, a
// float or a byte array, so its JSON depends only on the manifest's
// value, never on what the process encoded before: two workers
// completing the same shard emit byte-identical files.
func (m *Manifest) Encode() ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("shard: encode manifest: %w", err)
	}
	return cache.EncodeFramed(payload), nil
}

// DecodeManifest validates the container framing, decodes the payload
// and checks the manifest's structural invariants. Failures classify
// under the traceerr taxonomy: framing and invariant violations are
// ErrCorruptRecord/ErrTruncated, a payload written by a different
// schema is ErrVersionMismatch.
func DecodeManifest(data []byte) (*Manifest, error) {
	payload, err := cache.DecodeFramed(data)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest container: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("shard: manifest payload: %v: %w", err, traceerr.ErrCorruptRecord)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("shard: manifest v%d, this build speaks v%d: %w",
			m.Version, ManifestVersion, traceerr.ErrVersionMismatch)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// validate enforces the invariants every well-formed manifest holds;
// the fuzz target asserts no decodable input escapes them.
func (m *Manifest) validate() error {
	if err := m.Shard.Validate(); err != nil {
		return fmt.Errorf("shard: manifest: %v: %w", err, traceerr.ErrCorruptRecord)
	}
	if m.GridSize < 1 {
		return fmt.Errorf("shard: manifest: grid size %d < 1: %w", m.GridSize, traceerr.ErrCorruptRecord)
	}
	if len(m.Entries) > m.GridSize {
		return fmt.Errorf("shard: manifest: %d entries exceed grid size %d: %w",
			len(m.Entries), m.GridSize, traceerr.ErrCorruptRecord)
	}
	prev := -1
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.Seq <= prev {
			return fmt.Errorf("shard: manifest: entry %d seq %d not strictly increasing after %d: %w",
				i, e.Seq, prev, traceerr.ErrCorruptRecord)
		}
		if e.Seq >= m.GridSize {
			return fmt.Errorf("shard: manifest: entry seq %d outside grid of %d: %w",
				e.Seq, m.GridSize, traceerr.ErrCorruptRecord)
		}
		if e.Frames < 0 {
			return fmt.Errorf("shard: manifest: entry seq %d has %d frames: %w",
				e.Seq, e.Frames, traceerr.ErrCorruptRecord)
		}
		prev = e.Seq
	}
	return nil
}

// FileName is the conventional manifest file name for a spec:
// "shard-3of8.s3dm".
func FileName(spec Spec) string {
	return fmt.Sprintf("shard-%dof%d.s3dm", spec.Index+1, spec.Count)
}

// WriteFile encodes the manifest into dir (created if missing) under
// its conventional name, atomically: temp file then rename, so a
// reducer never reads a torn manifest.
func (m *Manifest) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("shard: %w", err)
	}
	data, err := m.Encode()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(m.Shard))
	tmp, err := os.CreateTemp(dir, "tmp-manifest-*")
	if err != nil {
		return "", fmt.Errorf("shard: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return "", fmt.Errorf("shard: writing manifest: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("shard: %w", err)
	}
	return path, nil
}

// ReadFile reads and validates one manifest file.
func ReadFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", filepath.Base(path), err)
	}
	return m, nil
}

// ReadDir reads every *.s3dm manifest in dir, sorted by file name for
// deterministic merge input order (Merge's output does not depend on
// it, but error messages and logs should be stable too).
func ReadDir(dir string) ([]*Manifest, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.s3dm"))
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("shard: no *.s3dm manifests in %s", dir)
	}
	sort.Strings(paths)
	ms := make([]*Manifest, 0, len(paths))
	for _, p := range paths {
		m, err := ReadFile(p)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// frameDigest hashes a per-frame nanosecond curve by IEEE-754 bits in
// frame order.
func frameDigest(frameNs []float64) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, v := range frameNs {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
