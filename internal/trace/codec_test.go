package trace_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/shader"
	"repro/internal/synth"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/traceerr"
	"repro/internal/tracetest"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the FuzzDecode seed corpus under testdata/fuzz")

// TestLegacyFixtures reads every form of a trace through every entry
// point: a v3 container and Tiny's JSON, written here, and
// testdata/tiny.v2.stream, tiny.v1.stream and tiny.gob.trace, which are
// tracetest.Tiny() as the v2 stream writer, the v1 stream writer and
// the gob .trace writer encoded it. None of those writers exists any
// more; the reader must keep returning Tiny, strict and lenient, with
// clean diagnostics.
func TestLegacyFixtures(t *testing.T) {
	want := tracetest.Tiny()
	var container, js bytes.Buffer
	if err := want.Encode(&container); err != nil {
		t.Fatal(err)
	}
	if err := want.EncodeJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		format  string
		version int
	}{
		{name: "container", data: container.Bytes(), format: "stream", version: trace.StreamVersion},
		{name: "json", data: js.Bytes(), format: "json"},
		{name: "tiny.v2.stream", format: "stream", version: 2},
		{name: "tiny.v1.stream", format: "gob", version: 1},
		{name: "tiny.gob.trace", format: "gob"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.data
			if data == nil {
				var err error
				if data, err = os.ReadFile(filepath.Join("testdata", tc.name)); err != nil {
					t.Fatal(err)
				}
			}
			for _, lenient := range []bool{false, true} {
				opt := trace.ReaderOptions{Lenient: lenient}
				r, err := trace.NewStreamReader(bytes.NewReader(data), opt)
				if err != nil {
					t.Fatalf("lenient=%v: NewStreamReader: %v", lenient, err)
				}
				if r.Format() != tc.format || r.Version() != tc.version {
					t.Errorf("lenient=%v: Format, Version = %q, %d, want %q, %d",
						lenient, r.Format(), r.Version(), tc.format, tc.version)
				}
				if got := drainFrames(t, r); !reflect.DeepEqual(got, want.Frames) || r.Diagnostics().Any() {
					t.Errorf("lenient=%v: NewStreamReader: frames differ from Tiny's or diagnostics %v", lenient, r.Diagnostics())
				}
				got, diag, err := trace.ReadStream(bytes.NewReader(data), opt)
				if err != nil || diag.Any() {
					t.Fatalf("lenient=%v: ReadStream: diag %v, err %v", lenient, diag, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("lenient=%v: ReadStream: workload differs from Tiny's", lenient)
				}
			}
			got, err := trace.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Decode: workload differs from Tiny's")
			}
		})
	}
}

// shortBioshock1 is bioshock1 cut to 16 frames.
func shortBioshock1() synth.Profile {
	p := synth.Bioshock1Profile()
	p.Frames = 16
	return p
}

// wireTrace mirrors the whole-workload wire form field for field, so
// tests can write gob .trace files and JSON documents for any
// workload, including ones EncodeJSON cannot (a broken shader table).
type wireTrace struct {
	Name          string
	Frames        []trace.Frame
	Shaders       []shader.Program
	Textures      []trace.Texture
	RenderTargets []trace.RenderTarget
}

func wireOf(w *trace.Workload) wireTrace {
	h := trace.HeaderOf(w)
	return wireTrace{Name: w.Name, Frames: w.Frames, Shaders: h.Shaders,
		Textures: w.Textures, RenderTargets: w.RenderTargets}
}

func encodeGobTrace(t *testing.T, w *trace.Workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wireOf(w)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeJSON(t *testing.T, w *trace.Workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeMatchesGobPath is the codec's differential test: a workload
// decoded from the container is DeepEqual to the same workload decoded
// from a gob .trace, with the same fingerprint.
func TestDecodeMatchesGobPath(t *testing.T) {
	workloads := []*trace.Workload{tracetest.Tiny()}
	for _, seed := range []uint64{1, 104729} {
		w, err := tracetest.CachedWorkload(shortBioshock1(), seed)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, w)
	}
	for _, w := range workloads {
		fromGob, err := trace.Decode(bytes.NewReader(encodeGobTrace(t, w)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := w.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := trace.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fromGob) {
			t.Fatalf("%s: container decode differs from the gob decode", w.Name)
		}
		if got.Fingerprint() != w.Fingerprint() {
			t.Fatalf("%s: fingerprint moved through the codec", w.Name)
		}
	}
}

// payload builds record payloads field by field, per the layout in
// codec.go.
type payload []byte

// scene starts a frame payload: a one-byte scene name.
func scene() payload { return payload{}.uv(1).raw('s') }

func (p payload) uv(v uint64) payload   { return binary.AppendUvarint(p, v) }
func (p payload) zz(v int64) payload    { return binary.AppendVarint(p, v) }
func (p payload) u8(v byte) payload     { return append(p, v) }
func (p payload) raw(b ...byte) payload { return append(p, b...) }
func (p payload) f64(v float64) payload {
	return binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
}

// draw appends d with its VS id replaced by vs.
func (p payload) draw(d trace.DrawCall, vs uint64) payload {
	p = p.zz(int64(d.VertexCount)).zz(int64(d.InstanceCount)).u8(byte(d.Topology)).
		uv(vs).uv(uint64(d.PS)).uv(uint64(len(d.Textures)))
	for _, id := range d.Textures {
		p = p.uv(uint64(id))
	}
	var flags byte
	if d.BlendEnable {
		flags |= 1
	}
	if d.DepthEnable {
		flags |= 2
	}
	return p.uv(uint64(d.RT)).u8(flags).f64(d.CoverageFrac).f64(d.Overdraw).f64(d.TexLocality).uv(uint64(d.MaterialID))
}

// withFrameRecord returns Tiny's container cut after its header record,
// plus one frame record carrying p under a valid checksum, so the
// damage reaches the payload codec.
func withFrameRecord(t *testing.T, p payload) []byte {
	t.Helper()
	data, starts := encodeV2Boundaries(t, tracetest.Tiny())
	out := append([]byte{}, data[:starts[0]]...)
	out = append(out, 0xA9, 0x3D, 0x5C, 0xE2, 2)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	return append(out, p...)
}

// decodeCases are the FuzzDecode seed corpus, which holds every form of
// a trace: each input with the class Decode must answer it with (nil
// for a valid input).
func decodeCases(t *testing.T) []struct {
	name string
	data []byte
	want error
} {
	tiny := tracetest.Tiny()
	d0 := tiny.Frames[0].Draws[0] // binds two textures
	vs := uint64(d0.VS)
	encode := func(mutate func(d *trace.DrawCall)) []byte {
		w := tracetest.Tiny()
		mutate(&w.Frames[0].Draws[0])
		var buf bytes.Buffer
		if err := w.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// A header whose shader table cannot be restored: two programs
	// share an id.
	dupShader := func() []byte {
		h := trace.HeaderOf(tracetest.Tiny())
		h.Shaders[1].ID = h.Shaders[0].ID
		var buf bytes.Buffer
		enc, err := trace.NewStreamEncoder(&buf, h)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteFrame(&tiny.Frames[0]); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fixture := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	tinyJSON := encodeJSON(t, tiny)
	dupShaderJSON := func() []byte {
		v := wireOf(tracetest.Tiny())
		v.Shaders[1].ID = v.Shaders[0].ID
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return []struct {
		name string
		data []byte
		want error
	}{
		{"valid-container", encode(func(*trace.DrawCall) {}), nil},
		{"crafted-frame", withFrameRecord(t, scene().uv(1).uv(2).draw(d0, vs)), nil},
		{"truncated-varint", withFrameRecord(t, scene().raw(0x80)), traceerr.ErrCorruptRecord},
		{"draw-count-exceeds-payload", withFrameRecord(t, scene().uv(1000).uv(2).draw(d0, vs)), traceerr.ErrCorruptRecord},
		{"texture-id-count-mismatch", withFrameRecord(t, scene().uv(1).uv(3).draw(d0, vs)), traceerr.ErrCorruptRecord},
		{"id-above-uint32", withFrameRecord(t, scene().uv(1).uv(2).draw(d0, math.MaxUint32+1)), traceerr.ErrCorruptRecord},
		{"trailing-payload-bytes", withFrameRecord(t, scene().uv(1).uv(2).draw(d0, vs).raw(0)), traceerr.ErrCorruptRecord},
		{"nan-coverage", encode(func(d *trace.DrawCall) { d.CoverageFrac = math.NaN() }), traceerr.ErrInvalidFrame},
		{"inf-overdraw", encode(func(d *trace.DrawCall) { d.Overdraw = math.Inf(1) }), traceerr.ErrInvalidFrame},
		{"neg-inf-locality", encode(func(d *trace.DrawCall) { d.TexLocality = math.Inf(-1) }), traceerr.ErrInvalidFrame},
		{"duplicate-shader-id", dupShader(), traceerr.ErrCorruptRecord},
		{"gob-fixture", fixture("tiny.gob.trace"), nil},
		{"v1-fixture", fixture("tiny.v1.stream"), nil},
		{"json-fixture", tinyJSON, nil},
		{"json-truncated", tinyJSON[:len(tinyJSON)/2], traceerr.ErrTruncated},
		{"json-empty-object", []byte("{}"), traceerr.ErrCorruptRecord},
		{"json-duplicate-shader-id", dupShaderJSON(), traceerr.ErrCorruptRecord},
	}
}

// TestDecodeRejectsMalformedPayloads holds the codec to the taxonomy on
// well-framed records whose payloads lie, and keeps the FuzzDecode seed
// corpus in step with the cases (-update-corpus rewrites it).
func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	for _, tc := range decodeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := trace.Decode(bytes.NewReader(tc.data))
			if tc.want == nil && err != nil {
				t.Fatalf("valid input rejected: %v", err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			path := filepath.Join("testdata", "fuzz", "FuzzDecode", tc.name)
			entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", tc.data)
			if *updateCorpus {
				if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != entry {
				t.Fatalf("seed corpus entry %s is stale (err %v); rerun with -update-corpus", path, err)
			}
		})
	}
}

// TestDecodeChecksCountsBeforeAllocating feeds counts that claim more
// elements than the payload could hold: each must be refused before
// anything is allocated for the claim.
func TestDecodeChecksCountsBeforeAllocating(t *testing.T) {
	for name, p := range map[string]payload{
		"draws":       scene().uv(1 << 16).uv(0),
		"texture ids": scene().uv(0).uv(1 << 20),
		"scene bytes": payload{}.uv(1 << 20),
	} {
		data := withFrameRecord(t, p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := trace.Decode(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, traceerr.ErrCorruptRecord) {
			t.Fatalf("%s: err = %v, want ErrCorruptRecord", name, err)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("%s: rejecting the payload allocated %d bytes", name, grown)
		}
	}
}

// TestDecodeAllocations pins the codec's allocation profile: a frame is
// three allocations (draws, texture-id arena, scene), not one per draw.
func TestDecodeAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w, err := tracetest.CachedWorkload(shortBioshock1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := trace.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if perDraw := allocs / float64(w.NumDraws()); perDraw > 0.1 {
		t.Errorf("%v allocations for %d draws (%.3f per draw), want at most 0.1 per draw",
			allocs, w.NumDraws(), perDraw)
	}
}
