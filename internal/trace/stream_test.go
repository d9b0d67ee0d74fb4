package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/trace"
	"repro/internal/traceerr"
	"repro/internal/tracetest"
)

func TestStreamRoundTrip(t *testing.T) {
	w := tracetest.Tiny()
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, w); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.NewStreamReader(&buf, trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shell := dec.Shell()
	if shell.Name != "tiny" || shell.Shaders.Len() != w.Shaders.Len() {
		t.Fatalf("shell = %q with %d shaders", shell.Name, shell.Shaders.Len())
	}
	if len(shell.Frames) != 0 {
		t.Fatal("shell should have no frames")
	}
	var frames []trace.Frame
	for {
		f, err := dec.NextFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if len(frames) != w.NumFrames() {
		t.Fatalf("streamed %d frames, want %d", len(frames), w.NumFrames())
	}
	if dec.FramesRead() != w.NumFrames() {
		t.Errorf("FramesRead = %d", dec.FramesRead())
	}
	for fi := range frames {
		if len(frames[fi].Draws) != len(w.Frames[fi].Draws) {
			t.Fatalf("frame %d draw count changed", fi)
		}
		if frames[fi].Draws[0].VertexCount != w.Frames[fi].Draws[0].VertexCount {
			t.Fatalf("frame %d content changed", fi)
		}
	}
}

func TestStreamEncoderIncremental(t *testing.T) {
	w := tracetest.Tiny()
	var buf bytes.Buffer
	enc, err := trace.NewStreamEncoder(&buf, trace.HeaderOf(w))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Frames {
		if err := enc.WriteFrame(&w.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if enc.Frames() != 3 {
		t.Errorf("Frames() = %d", enc.Frames())
	}
	dec, err := trace.NewStreamReader(&buf, trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := dec.NextFrame(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 3 {
		t.Errorf("decoded %d frames", n)
	}
}

func TestStreamDecoderValidatesFrames(t *testing.T) {
	w := tracetest.Tiny()
	w.Frames[1].Draws[0].CoverageFrac = 9 // invalid, but Validate not run by EncodeStream path below
	var buf bytes.Buffer
	enc, err := trace.NewStreamEncoder(&buf, trace.HeaderOf(w))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Frames {
		if err := enc.WriteFrame(&w.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := trace.NewStreamReader(&buf, trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.NextFrame(); err != nil {
		t.Fatalf("frame 0 should decode: %v", err)
	}
	if _, err := dec.NextFrame(); err == nil {
		t.Fatal("corrupt frame 1 accepted")
	}
}

// TestReadKeepsSourceError: a record cut short because its source
// failed (a body cap, an I/O error), not because the input ended, fails
// a strict read as it fails a lenient one, with the source's error in
// the chain, whether the cut falls in the record's header or in its
// payload. Cut at the end of input, a strict read still reports the
// record as truncated.
func TestReadKeepsSourceError(t *testing.T) {
	var buf bytes.Buffer
	if err := tracetest.Tiny().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Walk the records (13-byte header: sync, kind, length, CRC) to the
	// start of the last one.
	last := 5 // past the magic and the version byte
	for {
		next := last + 13 + int(binary.LittleEndian.Uint32(data[last+5:]))
		if next >= len(data) {
			break
		}
		last = next
	}
	errSource := errors.New("source failed")
	for name, n := range map[string]int{"in a record header": last + 6, "in a payload": last + 20} {
		for _, lenient := range []bool{false, true} {
			src := io.MultiReader(bytes.NewReader(data[:n]), iotest.ErrReader(errSource))
			if _, _, err := trace.ReadStream(src, trace.ReaderOptions{Lenient: lenient}); !errors.Is(err, errSource) {
				t.Errorf("cut %s, lenient=%v: err = %v, want the source's error", name, lenient, err)
			}
		}
		if _, _, err := trace.ReadStream(bytes.NewReader(data[:n]), trace.ReaderOptions{}); !errors.Is(err, traceerr.ErrTruncated) {
			t.Errorf("cut %s at the end of input: err = %v, want ErrTruncated", name, err)
		}
	}
}

func TestStreamDecoderRejectsGarbage(t *testing.T) {
	if _, err := trace.NewStreamReader(strings.NewReader("garbage"), trace.ReaderOptions{}); err == nil {
		t.Error("garbage header accepted")
	}
}

func TestHeaderShellErrors(t *testing.T) {
	h := trace.Header{Name: ""}
	if _, err := h.Shell(); err == nil {
		t.Error("empty-name header accepted")
	}
}
