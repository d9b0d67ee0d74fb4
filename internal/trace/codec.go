// Record payload codec — the hand-written, reflection-free encoding of
// stream-v3 header and frame records.
//
//	header  := name:str | nShaders:uv | program* | nTextures:uv | texture* | nRTs:uv | rt*
//	program := id:uv | stage:u8 | name:str | nInstr:uv | (op:u8 slot:u8)*
//	texture := width:zz | height:zz | bytesPerTexel:zz | mipLevels:zz
//	rt      := width:zz | height:zz | bytesPerPixel:zz | hasDepth:u8
//	frame   := scene:str | nDraws:uv | nTexIDs:uv | draw*
//	draw    := vertexCount:zz | instanceCount:zz | topology:u8 | vs:uv | ps:uv |
//	           nTex:uv | texID:uv* | rt:uv | flags:u8 | coverage:f64 |
//	           overdraw:f64 | texLocality:f64 | materialID:uv
//
// uv is an unsigned varint (ids and counts), zz a zigzag varint (int
// fields), f64 the raw little-endian IEEE-754 bits (every value
// round-trips bit for bit), str a uv byte length then the bytes. flags
// packs BlendEnable (bit 0) and DepthEnable (bit 1).
//
// A frame states its draw count and its total texture-id count up
// front, so it decodes into an exactly sized Draws slice plus one
// texture-id arena that every draw's Textures sub-slices. Every count
// is checked against the bytes left in the payload before anything is
// allocated, and the decoder is exact: an overflowing varint, a value
// wider than its field, an unknown flag bit, a texture-id total the
// draws do not use up, or trailing bytes all reject the payload.
//
// Workload.Fingerprint hashes these payloads, so any change to them
// moves every fingerprint and needs a fingerprintVersion bump.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/shader"
)

// Smallest encodings of the repeated elements, for bounding counts by
// the bytes left before allocating: every varint takes at least one
// byte, a float eight.
const (
	minProgramBytes = 4      // id, stage, name length, instruction count
	minInstrBytes   = 2      // op, slot
	minTextureBytes = 4      // four varints
	minRTBytes      = 4      // three varints and the depth byte
	minDrawBytes    = 9 + 24 // nine one-byte fields and three floats
)

const (
	flagBlend byte = 1 << iota
	flagDepth
)

// appendHeader appends the header payload of h to b.
func appendHeader(b []byte, h *Header) []byte {
	b = appendString(b, h.Name)
	b = binary.AppendUvarint(b, uint64(len(h.Shaders)))
	for i := range h.Shaders {
		p := &h.Shaders[i]
		b = binary.AppendUvarint(b, uint64(p.ID))
		b = append(b, byte(p.Stage))
		b = appendString(b, p.Name)
		b = binary.AppendUvarint(b, uint64(len(p.Body)))
		for _, in := range p.Body {
			b = append(b, byte(in.Op), in.Slot)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(h.Textures)))
	for _, t := range h.Textures {
		b = binary.AppendVarint(b, int64(t.Width))
		b = binary.AppendVarint(b, int64(t.Height))
		b = binary.AppendVarint(b, int64(t.BytesPerTexel))
		b = binary.AppendVarint(b, int64(t.MipLevels))
	}
	b = binary.AppendUvarint(b, uint64(len(h.RenderTargets)))
	for _, rt := range h.RenderTargets {
		b = binary.AppendVarint(b, int64(rt.Width))
		b = binary.AppendVarint(b, int64(rt.Height))
		b = binary.AppendVarint(b, int64(rt.BytesPerPixel))
		b = append(b, boolByte(rt.HasDepth))
	}
	return b
}

// appendFrame appends the frame payload of f to b.
func appendFrame(b []byte, f *Frame) []byte {
	nTex := 0
	for i := range f.Draws {
		nTex += len(f.Draws[i].Textures)
	}
	b = appendString(b, f.Scene)
	b = binary.AppendUvarint(b, uint64(len(f.Draws)))
	b = binary.AppendUvarint(b, uint64(nTex))
	for i := range f.Draws {
		d := &f.Draws[i]
		b = binary.AppendVarint(b, int64(d.VertexCount))
		b = binary.AppendVarint(b, int64(d.InstanceCount))
		b = append(b, byte(d.Topology))
		b = binary.AppendUvarint(b, uint64(d.VS))
		b = binary.AppendUvarint(b, uint64(d.PS))
		b = binary.AppendUvarint(b, uint64(len(d.Textures)))
		for _, t := range d.Textures {
			b = binary.AppendUvarint(b, uint64(t))
		}
		b = binary.AppendUvarint(b, uint64(d.RT))
		b = append(b, boolByte(d.BlendEnable)*flagBlend|boolByte(d.DepthEnable)*flagDepth)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.CoverageFrac))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.Overdraw))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.TexLocality))
		b = binary.AppendUvarint(b, uint64(d.MaterialID))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// decodeHeader decodes a header payload. It checks the encoding only;
// Header.Shell judges the content.
func decodeHeader(p []byte) (Header, error) {
	d := decoder{buf: p}
	h := Header{Name: d.str()}
	if n := d.count(minProgramBytes); n > 0 {
		h.Shaders = make([]shader.Program, n)
		for i := range h.Shaders {
			sp := &h.Shaders[i]
			sp.ID = shader.ID(d.u32())
			sp.Stage = shader.Stage(d.u8())
			sp.Name = d.str()
			if m := d.count(minInstrBytes); m > 0 {
				sp.Body = make([]shader.Instr, m)
				for j := range sp.Body {
					sp.Body[j] = shader.Instr{Op: shader.Op(d.u8()), Slot: d.u8()}
				}
			}
		}
	}
	if n := d.count(minTextureBytes); n > 0 {
		h.Textures = make([]Texture, n)
		for i := range h.Textures {
			h.Textures[i] = Texture{Width: d.int(), Height: d.int(), BytesPerTexel: d.int(), MipLevels: d.int()}
		}
	}
	if n := d.count(minRTBytes); n > 0 {
		h.RenderTargets = make([]RenderTarget, n)
		for i := range h.RenderTargets {
			h.RenderTargets[i] = RenderTarget{Width: d.int(), Height: d.int(), BytesPerPixel: d.int(), HasDepth: d.boolean()}
		}
	}
	if err := d.finish(); err != nil {
		return Header{}, err
	}
	return h, nil
}

// decodeFrame decodes a frame payload into f, leaving f untouched on
// error. It checks the encoding only; the stream reader's draw checker
// judges the content.
func decodeFrame(p []byte, f *Frame) error {
	d := decoder{buf: p}
	scene := d.str()
	nDraws, nTex := d.uvarint(), d.uvarint()
	if left := uint64(d.left()); nDraws > left/minDrawBytes || nTex > left-nDraws*minDrawBytes {
		d.fail(fmt.Errorf("%d draws and %d texture ids do not fit in %d bytes", nDraws, nTex, left))
	}
	if d.err != nil {
		return d.err
	}
	var draws []DrawCall
	if nDraws > 0 {
		draws = make([]DrawCall, nDraws)
	}
	arena := make([]TextureID, nTex)
	for i := range draws {
		dc := &draws[i]
		dc.VertexCount = d.int()
		dc.InstanceCount = d.int()
		dc.Topology = Topology(d.u8())
		dc.VS = shader.ID(d.u32())
		dc.PS = shader.ID(d.u32())
		if k := d.uvarint(); k > uint64(len(arena)) {
			d.fail(fmt.Errorf("draw %d binds %d textures, %d of the frame's ids are left", i, k, len(arena)))
		} else if k > 0 {
			dc.Textures, arena = arena[:k:k], arena[k:]
			for j := range dc.Textures {
				dc.Textures[j] = TextureID(d.u32())
			}
		}
		dc.RT = RTID(d.u32())
		flags := d.u8()
		if flags&^(flagBlend|flagDepth) != 0 {
			d.fail(fmt.Errorf("draw %d has unknown flag bits %#x", i, flags))
		}
		dc.BlendEnable = flags&flagBlend != 0
		dc.DepthEnable = flags&flagDepth != 0
		dc.CoverageFrac = d.float()
		dc.Overdraw = d.float()
		dc.TexLocality = d.float()
		dc.MaterialID = d.u32()
		if d.err != nil {
			return d.err
		}
	}
	if len(arena) != 0 {
		d.fail(fmt.Errorf("draws use %d of %d declared texture ids", nTex-uint64(len(arena)), nTex))
	}
	if err := d.finish(); err != nil {
		return err
	}
	*f = Frame{Scene: scene, Draws: draws}
	return nil
}

// decoder reads one payload. The first failure sticks: later reads
// return zero values and consume nothing, so callers check err once
// per element or at the end rather than after every field.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.buf)
}

func (d *decoder) left() int { return len(d.buf) - d.off }

// finish reports the first failure, or trailing bytes after a clean
// decode.
func (d *decoder) finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.err = fmt.Errorf("%d trailing bytes after the payload", len(d.buf)-d.off)
	}
	return d.err
}

var errVarint = errors.New("malformed varint")

func (d *decoder) uvarint() uint64 {
	// Most varints in a payload are one byte.
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		d.off++
		return uint64(d.buf[d.off-1])
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(errVarint)
		return 0
	}
	d.off += n
	return v
}

// int reads a zigzag varint into an int field.
func (d *decoder) int() int {
	u := d.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		d.fail(fmt.Errorf("value %d overflows int", v))
		return 0
	}
	return int(v)
}

// u32 reads a uvarint into a 32-bit id field.
func (d *decoder) u32() uint32 {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.fail(fmt.Errorf("id %d overflows uint32", v))
		return 0
	}
	return uint32(v)
}

// count reads an element count and bounds it by the bytes left, at
// minBytes per element, before the caller allocates for it.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(d.left()/minBytes) {
		d.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, d.left()))
		return 0
	}
	return int(n)
}

func (d *decoder) u8() byte {
	if d.off >= len(d.buf) {
		d.fail(errors.New("payload ends mid-value"))
		return 0
	}
	d.off++
	return d.buf[d.off-1]
}

func (d *decoder) boolean() bool {
	switch b := d.u8(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("bool byte %d", b))
		return false
	}
}

func (d *decoder) float() float64 {
	if d.left() < 8 {
		d.fail(errors.New("payload ends mid-value"))
		return 0
	}
	d.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off-8:]))
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(d.left()) {
		d.fail(fmt.Errorf("string of %d bytes exceeds the %d bytes left", n, d.left()))
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}
