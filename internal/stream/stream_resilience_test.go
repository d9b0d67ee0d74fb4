package stream

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// encodeV2 writes w in stream format, returning the bytes and each
// frame record's start offset.
func encodeV2(t *testing.T, w *trace.Workload) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	enc, err := trace.NewStreamEncoder(&buf, trace.HeaderOf(w))
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int, 0, len(w.Frames))
	for i := range w.Frames {
		starts = append(starts, buf.Len())
		if err := enc.WriteFrame(&w.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), starts
}

// TestLenientCorruptionMatchesCleanRun is the headline resilience
// guarantee: corrupt exactly one frame record, ingest leniently, and
// the subset must equal a clean run over the same surviving frames —
// with Diagnostics reporting exactly the one skipped record.
func TestLenientCorruptionMatchesCleanRun(t *testing.T) {
	w := streamGame(t)
	const victim = 17
	data, starts := encodeV2(t, w)
	corrupt := append([]byte{}, data...)
	corrupt[starts[victim]+25] ^= 0x80 // payload bit rot in frame 17's record

	r, err := trace.NewStreamReader(bytes.NewReader(corrupt), trace.ReaderOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), r, DefaultOptions())
	if err != nil {
		t.Fatalf("lenient run failed: %v", err)
	}

	d := got.Diagnostics
	if d.RecordsResynced != 1 || d.FramesSkipped != 0 || d.DrawsDropped != 0 {
		t.Errorf("diagnostics %+v, want exactly 1 record resynced", d)
	}
	if d.BytesDiscarded == 0 {
		t.Error("discarded bytes not accounted")
	}
	if got.ParentFrames != w.NumFrames()-1 {
		t.Fatalf("ingested %d frames, want %d", got.ParentFrames, w.NumFrames()-1)
	}

	// The clean reference: the same workload with the victim frame
	// removed, run strictly.
	clean := *w
	clean.Frames = append(append([]trace.Frame{}, w.Frames[:victim]...), w.Frames[victim+1:]...)
	s, err := New(shellOf(t, w), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Frames {
		if err := s.Push(clean.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if got.NumPhases != want.NumPhases || got.Timeline != want.Timeline {
		t.Errorf("phase structure diverged: %d/%s vs %d/%s",
			got.NumPhases, got.Timeline, want.NumPhases, want.Timeline)
	}
	if len(got.Frames) != len(want.Frames) {
		t.Fatalf("subset sizes diverged: %d vs %d", len(got.Frames), len(want.Frames))
	}
	for i := range got.Frames {
		if got.Frames[i].ParentFrame != want.Frames[i].ParentFrame ||
			got.Frames[i].PhaseScale != want.Frames[i].PhaseScale {
			t.Errorf("subset frame %d diverged: parent %d scale %v vs parent %d scale %v",
				i, got.Frames[i].ParentFrame, got.Frames[i].PhaseScale,
				want.Frames[i].ParentFrame, want.Frames[i].PhaseScale)
		}
	}
	// Subset metrics on the surviving frames must match the clean run.
	sim, err := gpu.NewSimulator(gpu.BaseConfig(), &clean)
	if err != nil {
		t.Fatal(err)
	}
	a, b := got.EstimateParentNs(sim), want.EstimateParentNs(sim)
	if math.Abs(a-b) > 1e-9*b {
		t.Errorf("parent estimates diverged: %v vs %v", a, b)
	}
}

// Strict mode must instead fail with ErrCorruptRecord naming the record.
func TestStrictCorruptionFailsFast(t *testing.T) {
	w := streamGame(t)
	data, starts := encodeV2(t, w)
	corrupt := append([]byte{}, data...)
	corrupt[starts[17]+25] ^= 0x80

	dec, err := trace.NewStreamDecoder(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(dec, DefaultOptions())
	if !errors.Is(err, traceerr.ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
	}
	var re *traceerr.RecordError
	if !errors.As(err, &re) || re.Record != 18 { // header is record 0
		t.Errorf("corrupt record index = %+v, want record 18", re)
	}
}

func TestRunContextCancellation(t *testing.T) {
	w := streamGame(t)
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, w); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.NewStreamDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, dec, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	dec2, err := trace.NewStreamDecoder(bytes.NewReader(buf.Bytes()))
	if err == nil {
		ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel2()
		if _, err := RunContext(ctx2, dec2, DefaultOptions()); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	}
}
