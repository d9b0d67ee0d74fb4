// Command subset3d runs the full workload-subsetting pipeline on a
// trace: per-frame draw-call clustering, shader-vector phase
// detection, subset extraction and frequency-scaling validation.
//
// Usage:
//
//	subset3d -trace game.trace [-threshold 0.5] [-interval 4] [-fast]
//	subset3d -stream game.stream [-lenient] [-timeout 30s]
//	subset3d -trace game.trace -manifest run.json -log-level info
//
// -fast skips the per-frame clustering evaluation (the expensive part)
// and only builds and validates the subset. -stream consumes a trace
// (any .trace tracegen writes is a frame stream) in one bounded-memory
// pass (no evaluation or validation sweep — the parent never exists in
// memory).
//
// -lenient ingests damaged captures gracefully: corrupt records are
// resynced past, invalid frames and draws dropped, and the run ends
// with a diagnostics summary instead of an error. Without it the first
// problem aborts the run. -timeout bounds the whole run; Ctrl-C
// cancels it the same way.
//
// -workers bounds the goroutine fan-out of the pipeline's hot loops
// (default GOMAXPROCS). The output is bit-identical at any worker
// count; the flag trades wall-clock time only.
//
// -cache-dir and -cache-mem enable the content-addressed result cache:
// the pass's clustering evaluation and the parent's time on every
// validation clock, one entry (with -fast, one parent price per
// clock), are then reused across runs over the same trace (-cache-dir
// persists them on disk; -cache-mem sets the in-memory budget in MiB).
// Caching never changes the report — warm and cold runs are
// byte-identical.
//
// Observability: -log-level {debug,info,warn,error,off} enables
// structured key=value logging to stderr (default off), -manifest
// out.json exports the run manifest (stage tree with durations and
// item counts, metrics snapshot, degradation diagnostics, worker
// config, input checksums), and -pprof-dir dir writes cpu.pprof and
// heap.pprof there. None of it changes results: the report is
// bit-identical with observability on or off.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// config is the parsed command line — one struct so the end-to-end
// tests drive exactly the path main does.
type config struct {
	tracePath string
	streamIn  string
	threshold float64
	interval  int
	fast      bool
	lenient   bool
	timeout   time.Duration
	workers   int
	cacheDir  string
	cacheMem  int

	logLevel string
	manifest string
	pprofDir string

	out io.Writer // report sink; os.Stdout in main
}

func main() {
	var cfg config
	flag.StringVar(&cfg.tracePath, "trace", "", "input .trace file (required)")
	flag.Float64Var(&cfg.threshold, "threshold", core.DefaultOptions().Subset.Method.Threshold, "leader clustering threshold")
	flag.IntVar(&cfg.interval, "interval", core.DefaultOptions().Subset.Phase.IntervalFrames, "phase detection interval (frames)")
	flag.BoolVar(&cfg.fast, "fast", false, "skip per-frame clustering evaluation")
	flag.StringVar(&cfg.streamIn, "stream", "", "frame-stream trace to subset in one bounded-memory pass")
	flag.BoolVar(&cfg.lenient, "lenient", false, "skip damaged records/frames and report diagnostics instead of failing")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "max goroutines for clustering evaluation, phase detection and the validation sweep (output is identical at any count)")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "directory for the on-disk result cache (empty = memory-only when -cache-mem is set, else no caching)")
	flag.IntVar(&cfg.cacheMem, "cache-mem", 0, "in-memory result cache budget in MiB (0 with no -cache-dir disables caching)")
	flag.StringVar(&cfg.logLevel, "log-level", "off", "structured logging to stderr: debug, info, warn, error or off")
	flag.StringVar(&cfg.manifest, "manifest", "", "write the run manifest (stages, metrics, diagnostics, checksums) to this JSON file")
	flag.StringVar(&cfg.pprofDir, "pprof-dir", "", "write cpu.pprof and heap.pprof to this directory")
	flag.Parse()
	cfg.out = os.Stdout
	if (cfg.tracePath == "") == (cfg.streamIn == "") {
		fmt.Fprintln(os.Stderr, "subset3d: exactly one of -trace or -stream is required")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	if err := execute(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "subset3d:", err)
		os.Exit(1)
	}
}

// execute wires observability around the selected pipeline and always
// finishes the manifest — a failed run still exports the stages and
// metrics it got through, which is exactly when they matter.
func execute(ctx context.Context, cfg config) error {
	run, stopProf, err := obs.SetupCLI("subset3d", cfg.logLevel, cfg.pprofDir)
	if err != nil {
		return err
	}
	run.SetWorkers(cfg.workers)
	ctx = run.Context(ctx)

	if cfg.streamIn != "" {
		err = runStream(ctx, run, cfg)
	} else {
		err = runTrace(ctx, run, cfg)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if merr := run.WriteManifest(cfg.manifest); err == nil {
		err = merr
	}
	return err
}

// recordInput records the input file's SHA-256 digest in the manifest,
// under an input-digest span: hashing the whole file is a pass of its
// own.
func recordInput(ctx context.Context, run *obs.Run, path string) {
	_, sp := obs.StartSpan(ctx, "input-digest")
	run.RecordFile("input", path)
	sp.End()
}

func runStream(ctx context.Context, run *obs.Run, cfg config) error {
	recordInput(ctx, run, cfg.streamIn)
	f, err := os.Open(cfg.streamIn)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewStreamReader(f, trace.ReaderOptions{Lenient: cfg.lenient})
	if err != nil {
		return err
	}
	opt := stream.DefaultOptions()
	opt.Method.Threshold = cfg.threshold
	opt.Phase.IntervalFrames = cfg.interval
	res, err := stream.RunContext(ctx, r, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "workload %s (streamed, format v%d): %d frames, %d draws\n",
		r.Shell().Name, r.Version(), res.ParentFrames, res.ParentDraws)
	if res.Diagnostics.Any() {
		fmt.Fprintf(cfg.out, "ingestion degraded: %v\n", res.Diagnostics)
	} else if cfg.lenient {
		fmt.Fprintf(cfg.out, "ingestion: %v\n", res.Diagnostics)
	}
	fmt.Fprintf(cfg.out, "phases: %d  timeline %s\n", res.NumPhases, res.Timeline)
	n := 0
	for i := range res.Frames {
		n += len(res.Frames[i].Draws)
	}
	fmt.Fprintf(cfg.out, "subset: %d frames, %d draws = %.2f%% of parent\n",
		len(res.Frames), n, res.SizeRatio()*100)
	return nil
}

func runTrace(ctx context.Context, run *obs.Run, cfg config) error {
	recordInput(ctx, run, cfg.tracePath)
	_, sp := obs.StartSpan(ctx, "decode-trace")
	f, err := os.Open(cfg.tracePath)
	if err != nil {
		sp.End()
		return err
	}
	defer f.Close()
	// Under -lenient the reader resyncs past corrupt records and drops
	// invalid frames and draws as they arrive; its accounting is the
	// report's.
	var (
		w    *trace.Workload
		diag traceerr.Diagnostics
	)
	if cfg.lenient {
		w, diag, err = trace.DecodeLenient(f, 0)
	} else {
		w, err = trace.Decode(f)
	}
	if err != nil {
		sp.End()
		return err
	}
	sp.AddItems(int64(w.NumFrames()))
	sp.End()
	if cfg.lenient {
		run.RecordDiagnostics(diag.Map())
	}

	opt := core.DefaultOptions()
	opt.Subset.Method.Threshold = cfg.threshold
	opt.Subset.Phase.IntervalFrames = cfg.interval
	opt.SkipClusteringEval = cfg.fast
	opt.Workers = cfg.workers
	opt.Cache, err = cache.FromFlags(cfg.cacheDir, cfg.cacheMem)
	if err != nil {
		return err
	}
	s, err := core.New(opt)
	if err != nil {
		return err
	}
	rep, err := s.RunContext(ctx, w)
	if err != nil {
		return err
	}
	rep.Diagnostics = diag
	_, rsp := obs.StartSpan(ctx, "render-report")
	rep.Render(cfg.out)
	rsp.End()
	return nil
}
