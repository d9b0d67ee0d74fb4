// Command gpusim prices a workload trace on a GPU configuration.
//
// Usage:
//
//	gpusim -trace game.trace [-core 1.0] [-mem 1.0] [-frames] [-workers N]
//	gpusim -trace game.trace -lenient -manifest run.json
//
// -trace reads a trace in any form: the container tracegen writes, the
// JSON tracegen -json writes, or a legacy gob form. It prints the total
// runtime, FPS and aggregate statistics; -frames additionally lists
// per-frame times. -lenient sanitizes a damaged trace (dropping invalid
// draws and unusable frames) instead of rejecting it, and reports what
// was skipped.
//
// -cache-dir/-cache-mem enable the content-addressed result cache: a
// repeat pricing of the same trace on the same config is then served
// from the cache instead of repriced, with byte-identical output. The
// entry's key is the one a grid or -shard run stores that config
// under, so the modes share a cache directory's entries.
//
// Grid sweeps and distributed sharding:
//
//	gpusim -trace game.trace -grid-core 0.5,1.0,1.5 -grid-mem 0.8,1.2
//	gpusim -trace game.trace -grid-core ... -shard 2/4 -cache-dir /shared/cache -shard-dir /shared/manifests
//	gpusim -merge -shard-dir /shared/manifests -sweep-out run.json
//
// The first form prices the whole grid in-process and prints the sweep
// table. The second prices only shard 2 of 4, the grid points whose
// index is 1 mod 4, and writes a per-shard manifest; run one gpusim
// per shard, on any machines that share the manifest directory. With
// -cache-dir, each priced grid point is stored as it finishes, so
// rerunning a killed shard on the same cache directory prices only
// what it had not stored. The third folds the manifests back into one
// run manifest, byte-identical to what the first form would have
// produced.
//
// -workers bounds the goroutines that price frames. A value below
// GOMAXPROCS also lowers GOMAXPROCS to it, since a cache-free grid
// sweep prices its frames on GOMAXPROCS goroutines.
//
// Observability: -log-level {debug,info,warn,error,off} enables
// structured stderr logging, -manifest out.json exports the run
// manifest (stages, metrics, diagnostics, input checksum), -pprof-dir
// writes CPU/heap profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/charz"
	"repro/internal/dcmath"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sweep"
	"repro/internal/trace"
)

type config struct {
	tracePath string
	core      float64
	mem       float64
	perFrame  bool
	breakdown bool
	lenient   bool
	timeout   time.Duration
	workers   int
	cacheDir  string
	cacheMem  int

	gridCore string
	gridMem  string
	shard    string
	shardDir string
	merge    bool
	sweepOut string

	logLevel string
	manifest string
	pprofDir string

	out io.Writer
}

func main() {
	var cfg config
	flag.StringVar(&cfg.tracePath, "trace", "", "input .trace file (required)")
	flag.Float64Var(&cfg.core, "core", 1.0, "core clock in GHz")
	flag.Float64Var(&cfg.mem, "mem", 1.0, "memory clock in GHz")
	flag.BoolVar(&cfg.perFrame, "frames", false, "print per-frame times")
	flag.BoolVar(&cfg.breakdown, "breakdown", false, "print workload characterization (bottlenecks, traffic)")
	flag.BoolVar(&cfg.lenient, "lenient", false, "sanitize a damaged trace (drop invalid draws/frames) and report diagnostics instead of failing")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "max goroutines for frame pricing and grid sweeps; below GOMAXPROCS it also lowers GOMAXPROCS (output is identical at any count)")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "directory for the on-disk result cache (empty = memory-only when -cache-mem is set, else no caching)")
	flag.IntVar(&cfg.cacheMem, "cache-mem", 0, "in-memory result cache budget in MiB (0 with no -cache-dir disables caching)")
	flag.StringVar(&cfg.gridCore, "grid-core", "", "comma-separated core clocks (GHz) for a grid sweep (empty with -grid-mem set = default ladder)")
	flag.StringVar(&cfg.gridMem, "grid-mem", "", "comma-separated memory clocks (GHz) for a grid sweep (default 1.0)")
	flag.StringVar(&cfg.shard, "shard", "", "price only shard i/n of the grid (e.g. 2/4); requires -shard-dir; with -cache-dir a rerun resumes from the stored grid points")
	flag.StringVar(&cfg.shardDir, "shard-dir", "", "directory for per-shard manifests (written by -shard, read by -merge)")
	flag.BoolVar(&cfg.merge, "merge", false, "fold the per-shard manifests in -shard-dir into the run manifest (no -trace needed)")
	flag.StringVar(&cfg.sweepOut, "sweep-out", "", "write the sweep's run manifest (JSON) to this file")
	flag.StringVar(&cfg.logLevel, "log-level", "off", "structured logging to stderr: debug, info, warn, error or off")
	flag.StringVar(&cfg.manifest, "manifest", "", "write the run manifest (stages, metrics, diagnostics, checksums) to this JSON file")
	flag.StringVar(&cfg.pprofDir, "pprof-dir", "", "write cpu.pprof and heap.pprof to this directory")
	flag.Parse()
	cfg.out = os.Stdout
	if cfg.workers > 0 && cfg.workers < runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(cfg.workers)
	}
	if cfg.tracePath == "" && !cfg.merge {
		fmt.Fprintln(os.Stderr, "gpusim: -trace is required")
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
		fmt.Fprintln(os.Stderr, "gpusim:", err)
		os.Exit(1)
	}
}

func execute(ctx context.Context, cfg config) error {
	run, stopProf, err := obs.SetupCLI("gpusim", cfg.logLevel, cfg.pprofDir)
	if err != nil {
		return err
	}
	run.SetWorkers(cfg.workers)
	ctx = run.Context(ctx)

	switch {
	case cfg.merge:
		err = mergeShards(ctx, cfg)
	case cfg.gridCore != "" || cfg.gridMem != "" || cfg.shard != "":
		err = sweepGrid(ctx, run, cfg)
	default:
		err = price(ctx, run, cfg)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if merr := run.WriteManifest(cfg.manifest); err == nil {
		err = merr
	}
	return err
}

// loadWorkload decodes the input trace — the shared front half of
// every pricing mode. Under -lenient the reader resyncs past corrupt
// records and drops invalid frames and draws as they arrive.
func loadWorkload(ctx context.Context, run *obs.Run, cfg config) (*trace.Workload, error) {
	run.RecordFile("input", cfg.tracePath)
	_, dsp := obs.StartSpan(ctx, "decode-trace")
	f, err := os.Open(cfg.tracePath)
	if err != nil {
		dsp.End()
		return nil, err
	}
	defer f.Close()
	w, diag, err := trace.ReadStream(f, trace.ReaderOptions{Lenient: cfg.lenient})
	if err != nil {
		dsp.End()
		return nil, err
	}
	dsp.AddItems(int64(w.NumFrames()))
	dsp.End()

	if cfg.lenient {
		run.RecordDiagnostics(diag.Map())
		if diag.Any() {
			fmt.Fprintf(cfg.out, "degraded: %v\n", diag)
			run.Logger().Warn("lenient decode degraded the workload",
				"workload", w.Name, "diagnostics", diag.String())
		}
	}
	return w, nil
}

func price(ctx context.Context, run *obs.Run, cfg config) error {
	w, err := loadWorkload(ctx, run, cfg)
	if err != nil {
		return err
	}

	cfgGPU := gpu.BaseConfig().WithCoreClock(cfg.core).WithMemClock(cfg.mem)
	sim, err := gpu.NewSimulator(cfgGPU, w)
	if err != nil {
		return err
	}
	rcache, err := cache.FromFlags(cfg.cacheDir, cfg.cacheMem)
	if err != nil {
		return err
	}
	pctx, psp := obs.StartSpan(ctx, "price-frames")
	psp.AddItems(int64(w.NumFrames()))
	var key cache.Key // the key a shard or grid run over this workload stores cfgGPU under
	if rcache != nil {
		// The fingerprint describes the sanitized workload, so a lenient
		// and a strict run over the same damaged trace key differently.
		_, fsp := obs.StartSpan(pctx, "fingerprint")
		fp := w.Fingerprint()
		fsp.End()
		key = sweep.PriceKey(fp, cfgGPU)
	}
	priced, err := cache.GetOrCompute(pctx, rcache, key, func() (sweep.PricedParent, error) {
		return sweep.PriceParent(pctx, sim, w, cfgGPU, cfg.workers)
	})
	psp.End()
	if err != nil {
		return err
	}
	res := priced.RunResult(cfgGPU.Name)
	fmt.Fprintf(cfg.out, "workload  %s (%d frames, %d draws)\n", w.Name, w.NumFrames(), w.NumDraws())
	fmt.Fprintf(cfg.out, "config    %s (core %.2f GHz, mem %.2f GHz, %.1f GB/s)\n",
		cfgGPU.Name, cfgGPU.CoreClockGHz, cfgGPU.MemClockGHz, cfgGPU.BandwidthGBs())
	fmt.Fprintf(cfg.out, "total     %.3f ms  (%.1f FPS)\n", res.TotalNs/1e6, res.FPS())
	fmt.Fprintf(cfg.out, "frame     mean %.3f ms  median %.3f ms  p95 %.3f ms  max %.3f ms\n",
		dcmath.Mean(res.FrameNs)/1e6, dcmath.Median(res.FrameNs)/1e6,
		dcmath.Quantile(res.FrameNs, 0.95)/1e6, dcmath.Max(res.FrameNs)/1e6)
	if cfg.perFrame {
		for i, t := range res.FrameNs {
			fmt.Fprintf(cfg.out, "  frame %4d  %10.3f ms  %s\n", i, t/1e6, w.Frames[i].Scene)
		}
	}
	if cfg.breakdown {
		fmt.Fprintln(cfg.out)
		_, csp := obs.StartSpan(ctx, "characterize")
		charz.Characterize(sim, w).Render(cfg.out)
		csp.End()
	}
	return nil
}

// parseClocks parses a comma-separated clock list ("0.5,1.0,1.5").
func parseClocks(flagName, s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %q is not a clock in GHz", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// gridConfigs builds the sweep grid from the -grid-core/-grid-mem
// flags: empty core = the default core-clock ladder, empty mem = the
// base 1.0 GHz. Every mode (sequential, shard, dispatch endpoint)
// builds grids this way, so the grid digest matches across them.
func gridConfigs(cfg config) ([]gpu.Config, error) {
	core := sweep.DefaultCoreClocks()
	mem := []float64{1.0}
	var err error
	if cfg.gridCore != "" {
		if core, err = parseClocks("-grid-core", cfg.gridCore); err != nil {
			return nil, err
		}
	}
	if cfg.gridMem != "" {
		if mem, err = parseClocks("-grid-mem", cfg.gridMem); err != nil {
			return nil, err
		}
	}
	return sweep.Grid(gpu.BaseConfig(), core, mem), nil
}

// writeSweepOut writes the run manifest JSON when -sweep-out is set.
func writeSweepOut(cfg config, rm *shard.RunManifest) error {
	if cfg.sweepOut == "" {
		return nil
	}
	data, err := rm.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.sweepOut, data, 0o644)
}

// sweepGrid prices a config grid: the whole grid in-process, or — with
// -shard i/n — only this process's share of it.
func sweepGrid(ctx context.Context, run *obs.Run, cfg config) error {
	w, err := loadWorkload(ctx, run, cfg)
	if err != nil {
		return err
	}
	cfgs, err := gridConfigs(cfg)
	if err != nil {
		return err
	}
	rcache, err := cache.FromFlags(cfg.cacheDir, cfg.cacheMem)
	if err != nil {
		return err
	}

	if cfg.shard != "" {
		spec, err := shard.ParseSpec(cfg.shard)
		if err != nil {
			return err
		}
		if cfg.shardDir == "" {
			return fmt.Errorf("-shard needs -shard-dir for the per-shard manifest")
		}
		_, fsp := obs.StartSpan(ctx, "fingerprint")
		fp := w.Fingerprint()
		fsp.End()
		m, st, err := shard.RunShard(ctx, rcache, w, fp, cfgs, spec)
		if err != nil {
			return err
		}
		rcache.Flush()
		path, err := m.WriteFile(cfg.shardDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "shard     %s  grid %d configs  owned %d  computed %d  cache hits %d\n",
			spec, len(cfgs), st.Owned, st.Computed, st.CacheHits)
		fmt.Fprintf(cfg.out, "manifest  %s\n", path)
		return nil
	}

	rm, err := shard.RunSequential(ctx, rcache, w, cfgs)
	if err != nil {
		return err
	}
	rcache.Flush()
	rm.Render(cfg.out)
	return writeSweepOut(cfg, rm)
}

// mergeShards folds the per-shard manifests in -shard-dir into the run
// manifest and prints the same sweep table a sequential run prints —
// byte-identical, which the e2e suite asserts with cmp.
func mergeShards(ctx context.Context, cfg config) error {
	_, sp := obs.StartSpan(ctx, "merge-shards")
	defer sp.End()
	if cfg.shardDir == "" {
		return fmt.Errorf("-merge needs -shard-dir")
	}
	ms, err := shard.ReadDir(cfg.shardDir)
	if err != nil {
		return err
	}
	sp.AddItems(int64(len(ms)))
	rm, err := shard.Merge(ms)
	if err != nil {
		return err
	}
	rm.Render(cfg.out)
	return writeSweepOut(cfg, rm)
}
