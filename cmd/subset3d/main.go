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
// -trace and -stream read a trace in any form: the container tracegen
// writes, the JSON tracegen -json writes, or a legacy gob form.
//
// -fast skips the per-frame clustering evaluation (the expensive part)
// and only builds and validates the subset. -stream subsets a trace
// (any .trace tracegen writes is a frame stream) in one bounded-memory
// pass straight off the file, without the clustering evaluation, the
// validation sweep or a cache: the parent never exists in memory, and
// -fast, -cache-dir and -cache-mem are errors with it. Both print the
// same report format.
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
// -cache-dir and -cache-mem enable the content-addressed result cache
// for -trace: the pass's product (the summary, the clustering
// evaluation, the phases, the subset and the parent's time on every
// validation clock) is one entry, with or without -fast, reused across
// runs over the same trace (-cache-dir persists it on disk; -cache-mem
// sets the in-memory budget in MiB). Caching never changes the report
// — warm and cold runs are byte-identical.
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

	var rep *core.Report
	var diag traceerr.Diagnostics // what a lenient reader dropped
	s, err := subsetter(cfg)
	if err == nil && cfg.streamIn != "" {
		rep, diag, err = runStream(ctx, run, cfg, s)
	} else if err == nil {
		rep, diag, err = runTrace(ctx, run, cfg, s)
	}
	if err == nil {
		rep.Diagnostics = diag
		_, sp := obs.StartSpan(ctx, "render-report")
		rep.Render(cfg.out)
		sp.End()
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if merr := run.WriteManifest(cfg.manifest); err == nil {
		err = merr
	}
	return err
}

// subsetter builds the pipeline the flags select. -stream runs without
// the clustering evaluation, the validation sweep or a cache, so the
// parent never exists in memory, and it refuses the flags that ask for
// them; -trace runs with the cache the flags ask for.
func subsetter(cfg config) (*core.Subsetter, error) {
	opt := core.DefaultOptions()
	opt.Subset.Method.Threshold = cfg.threshold
	opt.Subset.Phase.IntervalFrames = cfg.interval
	opt.Workers = cfg.workers
	opt.SkipClusteringEval = cfg.fast || cfg.streamIn != ""
	if cfg.streamIn != "" {
		for _, f := range []struct {
			name string
			set  bool
		}{{"-fast", cfg.fast}, {"-cache-dir", cfg.cacheDir != ""}, {"-cache-mem", cfg.cacheMem != 0}} {
			if f.set {
				return nil, fmt.Errorf("%s does not apply to -stream, which neither evaluates the clustering nor caches", f.name)
			}
		}
		opt.ValidationClocks = nil
	} else {
		var err error
		if opt.Cache, err = cache.FromFlags(cfg.cacheDir, cfg.cacheMem); err != nil {
			return nil, err
		}
	}
	return core.New(opt)
}

// runStream subsets a frame stream in one pass straight off the file.
func runStream(ctx context.Context, run *obs.Run, cfg config, s *core.Subsetter) (*core.Report, traceerr.Diagnostics, error) {
	run.RecordFile("input", cfg.streamIn)
	f, err := os.Open(cfg.streamIn)
	if err != nil {
		return nil, traceerr.Diagnostics{}, err
	}
	defer f.Close()
	r, err := trace.NewStreamReader(f, trace.ReaderOptions{Lenient: cfg.lenient})
	if err != nil {
		return nil, traceerr.Diagnostics{}, err
	}
	rep, err := s.RunSource(ctx, r)
	if cfg.lenient {
		run.RecordDiagnostics(r.Diagnostics().Map())
	}
	return rep, r.Diagnostics(), err
}

func runTrace(ctx context.Context, run *obs.Run, cfg config, s *core.Subsetter) (*core.Report, traceerr.Diagnostics, error) {
	run.RecordFile("input", cfg.tracePath)
	_, sp := obs.StartSpan(ctx, "decode-trace")
	f, err := os.Open(cfg.tracePath)
	if err != nil {
		sp.End()
		return nil, traceerr.Diagnostics{}, err
	}
	defer f.Close()
	// Under -lenient the reader resyncs past corrupt records and drops
	// invalid frames and draws as they arrive; its accounting is the
	// report's.
	w, diag, err := trace.ReadStream(f, trace.ReaderOptions{Lenient: cfg.lenient})
	if err != nil {
		sp.End()
		return nil, diag, err
	}
	sp.AddItems(int64(w.NumFrames()))
	sp.End()
	if cfg.lenient {
		run.RecordDiagnostics(diag.Map())
	}
	rep, err := s.RunContext(ctx, w)
	return rep, diag, err
}
