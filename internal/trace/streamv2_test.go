package trace_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/trace"
	"repro/internal/traceerr"
	"repro/internal/tracetest"
)

// encodeV2Boundaries writes w in v2 stream format and returns the
// encoded bytes plus the byte offset where each frame record starts.
func encodeV2Boundaries(t *testing.T, w *trace.Workload) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	enc, err := trace.NewStreamEncoder(&buf, trace.HeaderOf(w))
	if err != nil {
		t.Fatal(err)
	}
	var starts []int
	for i := range w.Frames {
		starts = append(starts, buf.Len())
		if err := enc.WriteFrame(&w.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), starts
}

func drainFrames(t *testing.T, r *trace.StreamReader) []trace.Frame {
	t.Helper()
	var frames []trace.Frame
	for {
		f, err := r.NextFrame()
		if errors.Is(err, io.EOF) {
			return frames
		}
		if err != nil {
			t.Fatalf("NextFrame: %v", err)
		}
		frames = append(frames, f)
	}
}

func TestStreamV2RoundTrip(t *testing.T) {
	w := tracetest.Tiny()
	data, _ := encodeV2Boundaries(t, w)
	r, err := trace.NewStreamReader(bytes.NewReader(data), trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != trace.StreamVersion {
		t.Fatalf("Version = %d, want %d", r.Version(), trace.StreamVersion)
	}
	frames := drainFrames(t, r)
	if len(frames) != w.NumFrames() {
		t.Fatalf("read %d frames, want %d", len(frames), w.NumFrames())
	}
	for fi := range frames {
		if len(frames[fi].Draws) != len(w.Frames[fi].Draws) {
			t.Fatalf("frame %d draw count changed", fi)
		}
		if frames[fi].Draws[0].VertexCount != w.Frames[fi].Draws[0].VertexCount {
			t.Fatalf("frame %d content changed", fi)
		}
	}
	if r.Diagnostics().Any() {
		t.Errorf("clean stream produced diagnostics: %v", r.Diagnostics())
	}
}

func TestStreamV2CorruptRecordStrict(t *testing.T) {
	w := tracetest.Tiny()
	data, starts := encodeV2Boundaries(t, w)
	corrupt := append([]byte{}, data...)
	corrupt[starts[1]+20] ^= 0xff // inside frame 1's payload

	r, err := trace.NewStreamReader(bytes.NewReader(corrupt), trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NextFrame(); err != nil {
		t.Fatalf("frame 0 should read cleanly: %v", err)
	}
	_, err = r.NextFrame()
	if !errors.Is(err, traceerr.ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
	}
	var re *traceerr.RecordError
	if !errors.As(err, &re) {
		t.Fatalf("err %v carries no RecordError", err)
	}
	// Record 0 is the header, frame k is record k+1.
	if re.Record != 2 {
		t.Errorf("corrupt record reported at index %d, want 2", re.Record)
	}
}

func TestStreamV2CorruptRecordLenient(t *testing.T) {
	w := tracetest.Tiny()
	data, starts := encodeV2Boundaries(t, w)

	cases := map[string]func([]byte){
		"payload bitflip": func(b []byte) { b[starts[1]+20] ^= 0x01 },
		"length field":    func(b []byte) { b[starts[1]+6] ^= 0x40 },
		"sync marker":     func(b []byte) { b[starts[1]] ^= 0xff },
		"zero run": func(b []byte) {
			for i := starts[1] + 14; i < starts[1]+46; i++ {
				b[i] = 0
			}
		},
	}
	for name, mangle := range cases {
		t.Run(name, func(t *testing.T) {
			corrupt := append([]byte{}, data...)
			mangle(corrupt)
			r, err := trace.NewStreamReader(bytes.NewReader(corrupt), trace.ReaderOptions{Lenient: true})
			if err != nil {
				t.Fatal(err)
			}
			frames := drainFrames(t, r)
			if len(frames) != w.NumFrames()-1 {
				t.Fatalf("read %d frames, want %d (frame 1 skipped)", len(frames), w.NumFrames()-1)
			}
			// Surviving frames must be frames 0 and 2, intact.
			if frames[0].Draws[0].VertexCount != w.Frames[0].Draws[0].VertexCount ||
				frames[1].Draws[0].VertexCount != w.Frames[2].Draws[0].VertexCount {
				t.Error("surviving frames do not match originals")
			}
			d := r.Diagnostics()
			if d.RecordsResynced != 1 {
				t.Errorf("RecordsResynced = %d, want 1", d.RecordsResynced)
			}
			if d.BytesDiscarded == 0 {
				t.Error("BytesDiscarded = 0, want > 0")
			}
			if d.FramesSkipped != 0 || d.DrawsDropped != 0 {
				t.Errorf("unexpected frame/draw accounting: %+v", d)
			}
		})
	}
}

func TestStreamV2TornRecord(t *testing.T) {
	w := tracetest.Tiny()
	data, starts := encodeV2Boundaries(t, w)
	// Tear 30 bytes out of the middle of frame 1's record.
	torn := append([]byte{}, data[:starts[1]+10]...)
	torn = append(torn, data[starts[1]+40:]...)

	r, err := trace.NewStreamReader(bytes.NewReader(torn), trace.ReaderOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := drainFrames(t, r)
	if len(frames) != w.NumFrames()-1 {
		t.Fatalf("read %d frames, want %d", len(frames), w.NumFrames()-1)
	}
	if d := r.Diagnostics(); d.RecordsResynced != 1 {
		t.Errorf("RecordsResynced = %d, want 1 (diag %+v)", d.RecordsResynced, d)
	}
}

func TestStreamV2Truncated(t *testing.T) {
	w := tracetest.Tiny()
	data, starts := encodeV2Boundaries(t, w)
	cut := data[:starts[2]+25] // mid-way through the last frame record

	r, err := trace.NewStreamReader(bytes.NewReader(cut), trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ferr error
	for i := 0; i < w.NumFrames(); i++ {
		if _, ferr = r.NextFrame(); ferr != nil {
			break
		}
	}
	if !errors.Is(ferr, traceerr.ErrTruncated) {
		t.Fatalf("strict err = %v, want ErrTruncated", ferr)
	}

	r, err = trace.NewStreamReader(bytes.NewReader(cut), trace.ReaderOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := drainFrames(t, r)
	if len(frames) != 2 {
		t.Fatalf("lenient read %d frames from truncated stream, want 2", len(frames))
	}
	if d := r.Diagnostics(); d.BytesDiscarded == 0 {
		t.Errorf("truncated tail not accounted: %+v", d)
	}
}

func TestStreamV2VersionMismatch(t *testing.T) {
	w := tracetest.Tiny()
	data, _ := encodeV2Boundaries(t, w)
	future := append([]byte{}, data...)
	future[4] = 9 // version byte after "3DWS"
	_, err := trace.NewStreamReader(bytes.NewReader(future), trace.ReaderOptions{})
	if !errors.Is(err, traceerr.ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	// Lenient mode cannot conjure a parser for an unknown version either.
	_, err = trace.NewStreamReader(bytes.NewReader(future), trace.ReaderOptions{Lenient: true})
	if !errors.Is(err, traceerr.ErrVersionMismatch) {
		t.Fatalf("lenient err = %v, want ErrVersionMismatch", err)
	}
}

func TestStreamV2InvalidFrameLenient(t *testing.T) {
	w := tracetest.Tiny()
	w.Frames[1].Draws[0].CoverageFrac = 9 // invalid draw, others in frame stay valid
	data, _ := encodeV2Boundaries(t, w)

	r, err := trace.NewStreamReader(bytes.NewReader(data), trace.ReaderOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := drainFrames(t, r)
	if len(frames) != w.NumFrames() {
		t.Fatalf("read %d frames, want %d (bad draw filtered, frame kept)", len(frames), w.NumFrames())
	}
	if len(frames[1].Draws) != len(w.Frames[1].Draws)-1 {
		t.Fatalf("frame 1 has %d draws, want %d", len(frames[1].Draws), len(w.Frames[1].Draws)-1)
	}
	d := r.Diagnostics()
	if d.DrawsDropped != 1 || d.FramesSkipped != 0 {
		t.Errorf("diagnostics %+v, want exactly 1 draw dropped", d)
	}

	// Strict mode must refuse the same frame with ErrInvalidFrame.
	rs, err := trace.NewStreamReader(bytes.NewReader(data), trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.NextFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.NextFrame(); !errors.Is(err, traceerr.ErrInvalidFrame) {
		t.Fatalf("strict err = %v, want ErrInvalidFrame", err)
	}
}

func TestStreamV2GarbagePrefixLenient(t *testing.T) {
	// Garbage before the magic means the header cannot be located:
	// even lenient construction fails (no resource tables, no frames).
	w := tracetest.Tiny()
	data, _ := encodeV2Boundaries(t, w)
	junk := append([]byte("garbage garbage"), data...)
	if _, err := trace.NewStreamReader(bytes.NewReader(junk), trace.ReaderOptions{Lenient: true}); err == nil {
		t.Fatal("stream with garbage prefix accepted")
	}
}
