package gpu

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// ModelVersion versions the cost model's semantics. The result cache
// mixes it into every key derived from priced results, so a change to
// DrawCost, the texture-cache model or the noise term invalidates
// cached prices instead of silently serving stale ones. Bump it with
// any change that can move a priced nanosecond or a bit of a priced
// Totals field: version 3 folds every Totals field per frame, as
// TotalNs is folded, so no cached product mixes the two fold rules.
const ModelVersion = 3

// Fingerprint digests every field of the configuration that the cost
// model reads, in fixed order. Two configs price every draw
// identically iff their fingerprints are equal (Name is excluded: it
// labels output, it never prices a draw).
func (c Config) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	i := func(v int) { u(uint64(int64(v))) }

	f(c.CoreClockGHz)
	f(c.MemClockGHz)
	i(c.NumEUs)
	i(c.SIMDWidth)
	f(c.PrimSetupRate)
	f(c.RasterRate)
	f(c.ROPRate)
	i(c.TexCacheKB)
	i(c.TexCacheLineB)
	i(c.TexCacheWays)
	f(c.DRAMBytesPerClk)
	f(c.DrawOverheadNs)
	f(c.OverlapBeta)
	i(c.VertexSizeB)
	f(c.ColorCompression)
	f(c.DepthCompression)
	f(c.NoiseAmp)
	f(c.NoiseRefNs)

	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
