package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/phase"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/traceerr"
	"repro/internal/tracetest"
)

// streamGame is a 64-frame capture for the streamed-pass tests.
func streamGame(t *testing.T) *trace.Workload {
	t.Helper()
	p := synth.Bioshock1Profile()
	p.Name = "streamtest"
	p.Frames = 64
	p.MaterialsPerScene = 40
	p.SharedMaterials = 8
	p.Textures = 80
	p.VSPool = 6
	p.PSPool = 16
	w, err := tracetest.CachedWorkload(p, 61)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// encodeStream writes w as a stream container, returning the bytes and
// each frame record's start offset.
func encodeStream(t *testing.T, w *trace.Workload) ([]byte, []int) {
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

func runSource(t *testing.T, opt Options, data []byte, ropt trace.ReaderOptions) (*Report, *trace.StreamReader, error) {
	t.Helper()
	r, err := trace.NewStreamReader(bytes.NewReader(data), ropt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunSource(context.Background(), r)
	return rep, r, err
}

// subsetOnly is subset3d -stream's options: no clustering evaluation
// and no validation sweep.
func subsetOnly() Options {
	o := DefaultOptions()
	o.SkipClusteringEval = true
	o.ValidationClocks = nil
	return o
}

// TestStreamMatchesBatchBuild holds a streamed pass to the in-memory
// one: RunSource over a workload's stream bytes gives the same
// canonical Report as RunContext over the workload (the subset's
// parent, a pointer to the input, left out). It runs on the three
// determinism profiles, whole and cut to a frame count that leaves a
// partial last interval, with the default and the subset-only options,
// under three phase settings: the defaults (shader-set equality),
// cosine matching, and quantized weights with a noise floor. The
// defaults run at 1, 2 and 4 workers, the others at 2.
func TestStreamMatchesBatchBuild(t *testing.T) {
	cosine := phase.DefaultOptions()
	cosine.MatchCosine = 0.5
	weighted := phase.DefaultOptions()
	weighted.QuantizeWeights = true
	weighted.MinShare = 0.01
	for _, tc := range []struct {
		name    string
		phase   phase.Options
		workers []int
	}{
		{"defaults", phase.DefaultOptions(), []int{1, 2, 4}},
		{"cosine 0.5", cosine, []int{2}},
		{"weighted min-share 0.01", weighted, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range detProfiles() {
				full, err := tracetest.CachedWorkload(p, 7)
				if err != nil {
					t.Fatal(err)
				}
				cut := *full
				cut.Frames = full.Frames[:14] // intervals of 4, 4, 4 and 2
				for _, w := range []*trace.Workload{full, &cut} {
					data, _ := encodeStream(t, w)
					for _, base := range []func() Options{DefaultOptions, subsetOnly} {
						opt := base()
						opt.Subset.Phase = tc.phase
						s, err := New(opt)
						if err != nil {
							t.Fatal(err)
						}
						ref, err := s.RunContext(context.Background(), w)
						if err != nil {
							t.Fatal(err)
						}
						want := canonicalReport(t, ref)
						for _, workers := range tc.workers {
							opt.Workers = workers
							got, _, err := runSource(t, opt, data, trace.ReaderOptions{})
							if err != nil {
								t.Fatalf("%s %d frames workers %d: %v", p.Name, len(w.Frames), workers, err)
							}
							if !bytes.Equal(canonicalReport(t, got), want) {
								t.Errorf("%s %d frames eval=%v workers %d: streamed Report differs from RunContext's",
									p.Name, len(w.Frames), !opt.SkipClusteringEval, workers)
							}
						}
					}
				}
			}
		})
	}
}

// TestLenientCorruptionMatchesCleanRun is the headline resilience
// guarantee: corrupt exactly one frame record, read it leniently, and
// the pass must equal a clean run over the same surviving frames, with
// the reader's Diagnostics reporting exactly the one skipped record.
func TestLenientCorruptionMatchesCleanRun(t *testing.T) {
	w := streamGame(t)
	const victim = 17
	data, starts := encodeStream(t, w)
	corrupt := append([]byte{}, data...)
	corrupt[starts[victim]+25] ^= 0x80 // payload bit rot in frame 17's record

	got, r, err := runSource(t, DefaultOptions(), corrupt, trace.ReaderOptions{Lenient: true})
	if err != nil {
		t.Fatalf("lenient run failed: %v", err)
	}
	d := r.Diagnostics()
	if d.RecordsResynced != 1 || d.FramesSkipped != 0 || d.DrawsDropped != 0 {
		t.Errorf("diagnostics %+v, want exactly 1 record resynced", d)
	}
	if d.BytesDiscarded == 0 {
		t.Error("discarded bytes not accounted")
	}
	if got.Summary.Frames != w.NumFrames()-1 {
		t.Fatalf("read %d frames, want %d", got.Summary.Frames, w.NumFrames()-1)
	}

	// The clean reference: the same workload with the victim frame
	// removed, run strictly.
	clean := *w
	clean.Frames = append(append([]trace.Frame{}, w.Frames[:victim]...), w.Frames[victim+1:]...)
	s, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(&clean)
	if err != nil {
		t.Fatal(err)
	}

	if got.Detection.NumPhases != want.Detection.NumPhases || got.PhaseTimeline() != want.PhaseTimeline() {
		t.Errorf("phase structure diverged: %d/%s vs %d/%s",
			got.Detection.NumPhases, got.PhaseTimeline(), want.Detection.NumPhases, want.PhaseTimeline())
	}
	if len(got.Subset.Frames) != len(want.Subset.Frames) {
		t.Fatalf("subset sizes diverged: %d vs %d", len(got.Subset.Frames), len(want.Subset.Frames))
	}
	for i := range got.Subset.Frames {
		g, w := got.Subset.Frames[i], want.Subset.Frames[i]
		if g.ParentFrame != w.ParentFrame || g.PhaseScale != w.PhaseScale {
			t.Errorf("subset frame %d diverged: parent %d scale %v vs parent %d scale %v",
				i, g.ParentFrame, g.PhaseScale, w.ParentFrame, w.PhaseScale)
		}
	}
	// Subset metrics on the surviving frames must match the clean run.
	sim, err := gpu.NewSimulator(gpu.BaseConfig(), &clean)
	if err != nil {
		t.Fatal(err)
	}
	a, b := got.Subset.EstimateParentNs(sim), want.Subset.EstimateParentNs(sim)
	if math.Abs(a-b) > 1e-9*b {
		t.Errorf("parent estimates diverged: %v vs %v", a, b)
	}
	if !bytes.Equal(canonicalReport(t, got), canonicalReport(t, want)) {
		t.Error("lenient streamed Report differs from the clean run's")
	}
}

// TestStrictCorruptionFailsFast: a strict reader instead fails the run
// with ErrCorruptRecord naming the record.
func TestStrictCorruptionFailsFast(t *testing.T) {
	w := streamGame(t)
	data, starts := encodeStream(t, w)
	corrupt := append([]byte{}, data...)
	corrupt[starts[17]+25] ^= 0x80

	_, _, err := runSource(t, DefaultOptions(), corrupt, trace.ReaderOptions{})
	if !errors.Is(err, traceerr.ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
	}
	var re *traceerr.RecordError
	if !errors.As(err, &re) || re.Record != 18 { // header is record 0
		t.Errorf("corrupt record index = %+v, want record 18", re)
	}
}

// cancelingSource cancels its context once it has yielded n frames.
type cancelingSource struct {
	FrameSource
	n      int
	cancel context.CancelFunc
}

func (s *cancelingSource) NextFrame() (trace.Frame, error) {
	if s.n--; s.n == 0 {
		s.cancel()
	}
	return s.FrameSource.NextFrame()
}

// TestRunSourceCancellation: a pre-canceled or expired context stops
// the drain with its error, and a drain canceled midway returns
// ctx.Err() and leaves no goroutine, at one worker and at four.
func TestRunSourceCancellation(t *testing.T) {
	checkNoLeaks(t)
	w := streamGame(t)
	data, _ := encodeStream(t, w)
	open := func() *trace.StreamReader {
		r, err := trace.NewStreamReader(bytes.NewReader(data), trace.ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	s, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunSource(ctx, open()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := s.RunSource(ctx2, open()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	for _, workers := range []int{1, 4} {
		opt := DefaultOptions()
		opt.Workers = workers
		s, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		_, err = s.RunSource(ctx, &cancelingSource{FrameSource: open(), n: 20, cancel: cancel})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		cancel()
	}
}

// TestRunSourceFromStreamReader drains an EncodeStream capture through
// a StreamReader with the subset-only options: the pass finds the
// capture's phases, keeps a small subset, and reads the stream to EOF.
func TestRunSourceFromStreamReader(t *testing.T) {
	w := streamGame(t)
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, w); err != nil {
		t.Fatal(err)
	}
	rep, r, err := runSource(t, subsetOnly(), buf.Bytes(), trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Frames != w.NumFrames() || rep.Summary.Draws != w.NumDraws() {
		t.Errorf("accounting: %d frames / %d draws, want %d / %d",
			rep.Summary.Frames, rep.Summary.Draws, w.NumFrames(), w.NumDraws())
	}
	if rep.Detection.NumPhases < 3 {
		t.Errorf("phases = %d", rep.Detection.NumPhases)
	}
	if rep.SizeRatio <= 0 || rep.SizeRatio > 0.2 {
		t.Errorf("size ratio = %v", rep.SizeRatio)
	}
	if rep.PhaseTimeline() == "" {
		t.Error("empty timeline")
	}
	if _, err := r.NextFrame(); err != io.EOF {
		t.Errorf("after the run, NextFrame err = %v, want io.EOF", err)
	}
}

// TestRunSourcePartialLastInterval drains 10 frames, two full 4-frame
// intervals and a 2-frame tail: the tail is an interval of its own, and
// the kept frames' phase scales account for every frame.
func TestRunSourcePartialLastInterval(t *testing.T) {
	full := streamGame(t)
	w := *full
	w.Frames = full.Frames[:10]
	data, _ := encodeStream(t, &w)
	rep, _, err := runSource(t, DefaultOptions(), data, trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Frames != 10 {
		t.Errorf("parent frames = %d", rep.Summary.Frames)
	}
	scaleByPhase := map[int]float64{}
	for _, f := range rep.Subset.Frames {
		scaleByPhase[f.Phase] = f.PhaseScale
	}
	var total float64
	for _, sc := range scaleByPhase {
		total += sc
	}
	if total != 10 {
		t.Errorf("phase scales cover %v of 10 frames", total)
	}
	if tl := rep.PhaseTimeline(); len(tl) != 3 {
		t.Errorf("timeline %q, want 3 intervals", tl)
	}
	if iv := rep.Detection.Intervals; len(iv) != 3 || iv[2].End-iv[2].Start != 2 {
		t.Errorf("intervals %+v, want a 2-frame last interval", iv)
	}
}

// TestRunSourceRejectsEmptySources: a stream without frames fails with
// ErrInvalidFrame, and so does a second run over a drained reader.
func TestRunSourceRejectsEmptySources(t *testing.T) {
	w := streamGame(t)
	data, starts := encodeStream(t, w)
	if _, _, err := runSource(t, subsetOnly(), data[:starts[0]], trace.ReaderOptions{}); !errors.Is(err, traceerr.ErrInvalidFrame) {
		t.Errorf("a stream without frames: err = %v, want ErrInvalidFrame", err)
	}
	_, r, err := runSource(t, subsetOnly(), data, trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(subsetOnly())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSource(context.Background(), r); !errors.Is(err, traceerr.ErrInvalidFrame) {
		t.Errorf("a drained reader: err = %v, want ErrInvalidFrame", err)
	}
}

// TestRunSourceValidatesOptions: bad phase options, a bad clustering
// method and a cache each fail a streamed run before it reads a frame.
func TestRunSourceValidatesOptions(t *testing.T) {
	w := streamGame(t)
	data, _ := encodeStream(t, w)
	badPhase := subsetOnly()
	badPhase.Subset.Phase.IntervalFrames = 0
	badMethod := subsetOnly()
	badMethod.Subset.Method.Threshold = 0
	cached := subsetOnly()
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cached.Cache = c
	for name, opt := range map[string]Options{"phase": badPhase, "method": badMethod, "cache": cached} {
		if _, r, err := runSource(t, opt, data, trace.ReaderOptions{}); err == nil || r.FramesRead() != 0 {
			t.Errorf("%s: err = %v after %d frames, want an error before the first", name, err, r.FramesRead())
		}
	}
}

// heapSampler wraps a source and records the live heap, after a forced
// GC, at each interval boundary it reaches.
type heapSampler struct {
	FrameSource
	interval, read int
	peak           uint64
}

func (s *heapSampler) NextFrame() (trace.Frame, error) {
	if s.read%s.interval == 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.peak = max(s.peak, ms.HeapAlloc)
	}
	s.read++
	return s.FrameSource.NextFrame()
}

// TestRunSourceMemoryFlatOverADoubledCapture drains a capture and the
// same capture written twice into one stream, from files, with the
// subset-only options subset3d -stream runs. The live heap's
// high-water mark above the heap before the run must agree within 10%:
// a pass holds its window and its Report, not the capture. One worker
// keeps the sample deterministic: what a wider window holds at a
// boundary depends on scheduling (TestOrderedFoldsInOrderWithinTheWindow
// bounds it).
func TestRunSourceMemoryFlatOverADoubledCapture(t *testing.T) {
	p := synth.Bioshock1Profile()
	p.Frames = 96
	w, err := synth.Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "once.stream"), filepath.Join(dir, "twice.stream")}
	for copies, path := range paths {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := trace.NewStreamEncoder(f, trace.HeaderOf(w))
		if err != nil {
			t.Fatal(err)
		}
		for range copies + 1 {
			for i := range w.Frames {
				if err := enc.WriteFrame(&w.Frames[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	w = nil

	opt := subsetOnly()
	opt.Workers = 1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	// A first, unmeasured run pays the allocations a process keeps
	// after its first pass (pools, lazily built tables), which would
	// otherwise count against the first measured run only.
	var peaks [2]uint64
	for i, path := range append(paths[:1:1], paths...) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := trace.NewStreamReader(f, trace.ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		src := &heapSampler{FrameSource: r, interval: opt.Subset.Phase.IntervalFrames}
		rep, err := s.RunSource(context.Background(), src)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := p.Frames * max(i, 1); rep.Summary.Frames != want {
			t.Fatalf("%s: %d frames, want %d", path, rep.Summary.Frames, want)
		}
		if i > 0 {
			peaks[i-1] = src.peak - ms.HeapAlloc
		}
	}
	t.Logf("live heap high-water above the start: %d bytes once, %d twice", peaks[0], peaks[1])
	if lo, hi := min(peaks[0], peaks[1]), max(peaks[0], peaks[1]); float64(hi) > 1.1*float64(lo) {
		t.Errorf("high-water marks %d and %d bytes differ by more than 10%%", peaks[0], peaks[1])
	}
}

// The streamed pass's Report renders like any other.
func ExampleSubsetter_RunSource() {
	p := synth.Bioshock1Profile()
	p.Frames = 24
	w, err := synth.Generate(p, 42)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, w); err != nil {
		panic(err)
	}
	r, err := trace.NewStreamReader(&buf, trace.ReaderOptions{})
	if err != nil {
		panic(err)
	}
	opt := DefaultOptions()
	opt.SkipClusteringEval = true // subset only, as subset3d -stream
	opt.ValidationClocks = nil
	s, err := New(opt)
	if err != nil {
		panic(err)
	}
	rep, err := s.RunSource(context.Background(), r)
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Summary.Frames, "frames,", rep.Detection.NumPhases, "phases:", rep.PhaseTimeline())
	_, err = r.NextFrame()
	fmt.Println("drained:", err == io.EOF)
	// Output:
	// 24 frames, 2 phases: AAABBA
	// drained: true
}
