package trace_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertWorkloadsEqual(t, w, got)
	if !reflect.DeepEqual(got, w) {
		t.Fatal("decoded workload is not DeepEqual to the encoded one")
	}
}

// TestJSONEmptyListsReadAsNil: JSON spells an empty list [], which the
// reader takes as the nil the container decodes, so a JSON workload
// re-encodes as a container that reads back DeepEqual.
func TestJSONEmptyListsReadAsNil(t *testing.T) {
	w := tracetest.Tiny()
	var buf bytes.Buffer
	if err := w.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc := strings.ReplaceAll(buf.String(), `"Textures": null`, `"Textures": []`)
	if doc == buf.String() {
		t.Fatal("Tiny's JSON has no empty texture list to respell")
	}
	got, err := trace.Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatal("a JSON workload with [] lists differs from the container's")
	}
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
	if _, err := trace.Decode(strings.NewReader("{")); err == nil {
		t.Error("garbage JSON accepted")
	}
}

// TestReadStreamEnforcesSizeCap holds ReadStream's cap to the input's
// exact size, in every form and in either mode: a lenient read does not
// repair an input the cap cut.
func TestReadStreamEnforcesSizeCap(t *testing.T) {
	w := tracetest.Tiny()
	var bin, js bytes.Buffer
	if err := w.Encode(&bin); err != nil {
		t.Fatal(err)
	}
	if err := w.EncodeJSON(&js); err != nil {
		t.Fatal(err)
	}
	fixture := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, form := range []struct {
		name    string
		data    []byte
		drained bool // read to its end, not to the end of one value
	}{
		{"container", bin.Bytes(), true},
		{"v1", fixture("tiny.v1.stream"), true},
		{"json", bytes.TrimSuffix(js.Bytes(), []byte("\n")), false},
		{"gob", fixture("tiny.gob.trace"), false},
	} {
		size := int64(len(form.data))
		for _, lenient := range []bool{false, true} {
			read := func(data []byte, max int64) error {
				_, _, err := trace.ReadCapped(bytes.NewReader(data), trace.ReaderOptions{Lenient: lenient}, max)
				return err
			}
			// A cap below the encoded size, even by one byte, is too
			// large.
			for _, max := range []int64{size / 2, size - 1} {
				if err := read(form.data, max); !errors.Is(err, traceerr.ErrTooLarge) {
					t.Fatalf("%s lenient=%v: at cap %d: err = %v, want ErrTooLarge", form.name, lenient, max, err)
				}
			}
			// A stream is drained, so one byte past it is too large; a
			// whole-workload value ends where the value does.
			if form.drained {
				if err := read(append(form.data[:size:size], 0), size); !errors.Is(err, traceerr.ErrTooLarge) {
					t.Fatalf("lenient=%v: %d+1 bytes at cap %d: err = %v, want ErrTooLarge", lenient, size, size, err)
				}
			}
			// At the exact size the read succeeds.
			if err := read(form.data, size); err != nil {
				t.Fatalf("%s lenient=%v: at exact cap: %v", form.name, lenient, err)
			}
			// A truncated but small input is not misreported as too
			// large; a lenient read may repair it.
			if err := read(form.data[:size/2], size); (err == nil && !lenient) || errors.Is(err, traceerr.ErrTooLarge) {
				t.Fatalf("%s lenient=%v: truncated input: err = %v, want a failure that is not ErrTooLarge",
					form.name, lenient, err)
			}
		}
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
