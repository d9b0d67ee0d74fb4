package trace_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/traceerr"
	"repro/internal/tracetest"
)

func TestBinaryRoundTrip(t *testing.T) {
	w := tracetest.Tiny()
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(trace.StreamMagic)) {
		t.Fatalf("Encode wrote %q..., want a stream container", buf.Bytes()[:8])
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertWorkloadsEqual(t, w, got)
	if !reflect.DeepEqual(got, w) {
		t.Fatal("decoded workload is not DeepEqual to the encoded one")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := tracetest.Tiny()
	var buf bytes.Buffer
	if err := w.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"Name": "tiny"`) {
		t.Error("JSON output missing expected field")
	}
	got, err := trace.DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertWorkloadsEqual(t, w, got)
}

func assertWorkloadsEqual(t *testing.T, want, got *trace.Workload) {
	t.Helper()
	if got.Name != want.Name {
		t.Errorf("name %q != %q", got.Name, want.Name)
	}
	if got.NumFrames() != want.NumFrames() || got.NumDraws() != want.NumDraws() {
		t.Fatalf("shape mismatch: %d/%d frames, %d/%d draws",
			got.NumFrames(), want.NumFrames(), got.NumDraws(), want.NumDraws())
	}
	for fi := range want.Frames {
		for di := range want.Frames[fi].Draws {
			a, b := want.Frames[fi].Draws[di], got.Frames[fi].Draws[di]
			// Textures is a slice; compare element-wise then blank it
			// for the struct comparison.
			if len(a.Textures) != len(b.Textures) {
				t.Fatalf("frame %d draw %d texture count", fi, di)
			}
			for k := range a.Textures {
				if a.Textures[k] != b.Textures[k] {
					t.Fatalf("frame %d draw %d texture %d", fi, di, k)
				}
			}
			a.Textures, b.Textures = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("frame %d draw %d mismatch:\n%+v\n%+v", fi, di, a, b)
			}
		}
	}
	if got.Shaders.Len() != want.Shaders.Len() {
		t.Fatalf("shader count %d != %d", got.Shaders.Len(), want.Shaders.Len())
	}
	for _, id := range want.Shaders.IDs() {
		wp := want.Shaders.MustLookup(id)
		gp, err := got.Shaders.Lookup(id)
		if err != nil {
			t.Fatalf("shader %d missing after round trip", id)
		}
		if gp.Name != wp.Name || gp.Stage != wp.Stage || len(gp.Body) != len(wp.Body) {
			t.Fatalf("shader %d changed", id)
		}
	}
	if len(got.Textures) != len(want.Textures) || len(got.RenderTargets) != len(want.RenderTargets) {
		t.Fatal("resource tables changed size")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := trace.Decode(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage binary input accepted")
	}
	if _, err := trace.DecodeJSON(strings.NewReader("{")); err == nil {
		t.Error("garbage JSON accepted")
	}
}

func TestDecodeLimitedEnforcesSizeCap(t *testing.T) {
	w := tracetest.Tiny()
	var binBuf, jsonBuf bytes.Buffer
	if err := w.Encode(&binBuf); err != nil {
		t.Fatal(err)
	}
	if err := w.EncodeJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	size := int64(binBuf.Len())

	// A cap below the encoded size must reject with ErrTooLarge.
	_, err := trace.DecodeLimited(bytes.NewReader(binBuf.Bytes()), size/2)
	if !errors.Is(err, traceerr.ErrTooLarge) {
		t.Fatalf("binary over cap: err = %v, want ErrTooLarge", err)
	}
	_, err = trace.DecodeJSONLimited(bytes.NewReader(jsonBuf.Bytes()), int64(jsonBuf.Len())/2)
	if !errors.Is(err, traceerr.ErrTooLarge) {
		t.Fatalf("json over cap: err = %v, want ErrTooLarge", err)
	}
	// One byte over the cap, either way round, is too large.
	_, err = trace.DecodeLimited(bytes.NewReader(binBuf.Bytes()), size-1)
	if !errors.Is(err, traceerr.ErrTooLarge) {
		t.Fatalf("binary at cap len-1: err = %v, want ErrTooLarge", err)
	}
	_, err = trace.DecodeLimited(bytes.NewReader(append(binBuf.Bytes(), 0)), size)
	if !errors.Is(err, traceerr.ErrTooLarge) {
		t.Fatalf("binary of len+1 bytes at cap len: err = %v, want ErrTooLarge", err)
	}

	// At or above the encoded size both decoders succeed.
	if _, err := trace.DecodeLimited(bytes.NewReader(binBuf.Bytes()), size); err != nil {
		t.Fatalf("binary at exact cap: %v", err)
	}
	if _, err := trace.DecodeJSONLimited(bytes.NewReader(jsonBuf.Bytes()), int64(jsonBuf.Len())+1); err != nil {
		t.Fatalf("json within cap: %v", err)
	}

	// A truncated-but-small input must NOT be misreported as too large.
	_, err = trace.DecodeLimited(bytes.NewReader(binBuf.Bytes()[:size/2]), size)
	if err == nil || errors.Is(err, traceerr.ErrTooLarge) {
		t.Fatalf("truncated input: err = %v, want decode failure that is not ErrTooLarge", err)
	}
}

func TestDecodeValidatesContent(t *testing.T) {
	// Encode a workload, then break it *before* encoding so the decoder
	// sees a well-formed container that fails semantic validation.
	w := tracetest.Tiny()
	w.Frames[0].Draws[0].CoverageFrac = 7 // invalid
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Decode(&buf); err == nil {
		t.Error("decoder accepted semantically invalid workload")
	}
}
