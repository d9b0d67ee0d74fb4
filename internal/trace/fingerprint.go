package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
)

// Fingerprint is the SHA-256 of a workload's canonical encoding: the
// content-address the result cache keys every derived computation on.
// Two workloads share a fingerprint exactly when every input the
// pipeline reads — frames, draws, shaders, textures, render targets —
// is identical.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint in hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// fingerprintVersion versions the canonical encoding itself. Bump it
// whenever the encoding below changes (field added, order changed), so
// fingerprints from older builds can never alias new ones.
const fingerprintVersion = 1

// fpWriter serializes workload content into a hash with a fixed field
// order and fixed-width integer encoding, so the digest is independent
// of map iteration, pointer values, or encoding-library internals.
// Fields are staged in a fixed buffer and flushed to the hash in
// order: the hashed byte stream is exactly the field sequence, but the
// hash sees a few large writes instead of ~16 eight-byte writes per
// draw.
type fpWriter struct {
	h   hash.Hash
	buf [4096]byte
	n   int // staged bytes in buf
}

func (w *fpWriter) u64(v uint64) {
	if w.n+8 > len(w.buf) {
		w.flush()
	}
	binary.BigEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

func (w *fpWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *fpWriter) i(v int)     { w.u64(uint64(int64(v))) }
func (w *fpWriter) f(v float64) { w.u64(math.Float64bits(v)) }

func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	if len(s) > len(w.buf)-w.n {
		w.flush()
		if len(s) > len(w.buf) {
			io.WriteString(w.h, s)
			return
		}
	}
	w.n += copy(w.buf[w.n:], s)
}

func (w *fpWriter) b(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

// Fingerprint computes the workload's content fingerprint in one pass.
// It walks every field the pipeline can read; capture metadata that
// influences output (scene names feed evaluation, material ids feed
// validity scoring) is included. The cost is one linear hash over the
// workload (~100 bytes/draw); callers that need it repeatedly should
// compute it once and pass it down, which is what core does when a
// cache is attached.
func (w *Workload) Fingerprint() Fingerprint {
	fw := &fpWriter{h: sha256.New()}
	fw.u64(fingerprintVersion)
	fw.str(w.Name)

	fw.i(len(w.Textures))
	for _, t := range w.Textures {
		fw.i(t.Width)
		fw.i(t.Height)
		fw.i(t.BytesPerTexel)
		fw.i(t.MipLevels)
	}
	fw.i(len(w.RenderTargets))
	for _, rt := range w.RenderTargets {
		fw.i(rt.Width)
		fw.i(rt.Height)
		fw.i(rt.BytesPerPixel)
		fw.b(rt.HasDepth)
	}
	if w.Shaders == nil {
		fw.i(0)
	} else {
		progs := w.Shaders.Programs() // id order: deterministic
		fw.i(len(progs))
		for _, p := range progs {
			fw.u64(uint64(p.ID))
			fw.u64(uint64(p.Stage))
			fw.str(p.Name)
			fw.i(len(p.Body))
			for _, in := range p.Body {
				fw.u64(uint64(in.Op)<<8 | uint64(in.Slot))
			}
		}
	}

	fw.i(len(w.Frames))
	for fi := range w.Frames {
		f := &w.Frames[fi]
		fw.str(f.Scene)
		fw.i(len(f.Draws))
		for di := range f.Draws {
			d := &f.Draws[di]
			fw.i(d.VertexCount)
			fw.i(d.InstanceCount)
			fw.u64(uint64(d.Topology))
			fw.u64(uint64(d.VS))
			fw.u64(uint64(d.PS))
			fw.i(len(d.Textures))
			for _, tid := range d.Textures {
				fw.u64(uint64(tid))
			}
			fw.u64(uint64(d.RT))
			fw.b(d.BlendEnable)
			fw.b(d.DepthEnable)
			fw.f(d.CoverageFrac)
			fw.f(d.Overdraw)
			fw.f(d.TexLocality)
			fw.u64(uint64(d.MaterialID))
		}
	}

	fw.flush()
	var fp Fingerprint
	fw.h.Sum(fp[:0])
	return fp
}
