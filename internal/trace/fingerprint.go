package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint is the SHA-256 of a workload's canonical encoding: the
// content-address the result cache keys every derived computation on.
// Two workloads share a fingerprint exactly when every input the
// pipeline reads — frames, draws, shaders, textures, render targets —
// is identical.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint in hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// fingerprintVersion versions the hashed byte stream and the codec
// payloads in it. Bump it whenever either changes (a field added, an
// order changed), so fingerprints from older builds can never alias
// new ones. Version 1 hashed a second, fixed-width serialization;
// version 2 hashes the stream codec's payloads.
const fingerprintVersion = 2

// Fingerprint computes the workload's content fingerprint: one SHA-256
// over fingerprintVersion (8 bytes, big-endian), the appendHeader
// payload, then each frame's appendFrame payload in frame order. Every
// payload is self-delimiting, so the stream parses one way, and the
// codec round-trips every model field, so the hash covers everything
// the pipeline reads (capture metadata too: scene names feed
// evaluation, material ids validity scoring). A nil shader registry
// hashes as zero programs.
//
// The hash is over a re-encoding of the workload as it is in memory,
// never over input bytes, and nothing is memoized: a sanitized or
// mutated workload hashes its current content. The cost is one
// encoding and one sequential SHA-256 of the codec's payload bytes
// (about 45 per draw), through one reused frame buffer; callers that
// need it repeatedly compute it once and pass it down, which is what
// core does when a cache is attached.
func (w *Workload) Fingerprint() Fingerprint {
	h := Header{Name: w.Name, Textures: w.Textures, RenderTargets: w.RenderTargets}
	if w.Shaders != nil {
		h = HeaderOf(w)
	}
	buf := appendHeader(binary.BigEndian.AppendUint64(nil, fingerprintVersion), &h)
	sum := sha256.New()
	sum.Write(buf)
	for i := range w.Frames {
		buf = appendFrame(buf[:0], &w.Frames[i])
		sum.Write(buf)
	}
	var fp Fingerprint
	sum.Sum(fp[:0])
	return fp
}
