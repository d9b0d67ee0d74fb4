// Command experiments regenerates every table and figure of the
// reproduction (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results).
//
// Usage:
//
//	experiments [-run E2,E8] [-seed 42] [-short]
//
// Without -run, all experiments execute in order. -short shrinks the
// corpus (48 frames per game) for quick iteration; published numbers
// use the full 717-frame corpus.
//
// Failures are reported through the structured logger (default
// -log-level error) with the experiment id, duration and error class;
// -manifest out.json exports a run manifest with one stage per
// experiment, and -pprof-dir writes CPU/heap profiles.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/subset"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// experiment is one regenerable table/figure.
type experiment struct {
	id    string
	title string
	run   func(*ctx) error
}

var experiments = []experiment{
	{"E1", "Corpus summary (paper: 717 frames, 828K draw calls)", runE1},
	{"E2", "Per-frame performance prediction error (paper: 1.0% avg)", runE2},
	{"E3", "Clustering efficiency (paper: 65.8% avg)", runE3},
	{"E4", "Cluster outliers > 20% intra error (paper: 3.0% avg)", runE4},
	{"E5", "Error vs efficiency trade-off (threshold sweep)", runE5},
	{"E6", "Phase detection: shader-vector timelines", runE6},
	{"E7", "Subset size (paper: < 1% of parent)", runE7},
	{"E8", "Core-frequency scaling correlation (paper: r >= 0.997)", runE8},
	{"E9", "Baselines: clustering vs random/uniform/first-N", runE9},
	{"E10", "Ablations: normalization, algorithm, feature groups", runE10},
	{"E11", "Memory-frequency scaling correlation (extension)", runE11},
	{"E12", "Pathfinding decision fidelity on a config grid (extension)", runE12},
	{"E13", "Context-dependence study: shared texture cache vs context-free oracle (extension)", runE13},
	{"E14", "Seed robustness of the headline metrics (extension)", runE14},
	{"E15", "PCA reduction and BIC cluster-count selection (extension)", runE15},
	{"E16", "Energy-aware pathfinding: min-EDP decision on a DVFS sweep (extension)", runE16},
	{"E17", "Workload characterization: bottlenecks and traffic on the base config (extension)", runE17},
	{"E18", "API command-stream characterization: state changes per draw (extension)", runE18},
	{"E19", "Pareto frontier and power-capped pathfinding, parent vs subset (extension)", runE19},
	{"E20", "Subset fidelity on micro-architectural sweeps: EU count, cache size (extension)", runE20},
	{"E21", "Cluster validity vs engine material ground truth: ARI, purity (extension)", runE21},
	{"E22", "Feature-space spectrum: effective dimensionality per frame (extension)", runE22},
}

// ctx carries the lazily-built corpus and evaluation caches shared by
// experiments (E2-E4 reuse one clustering evaluation, for example).
type ctx struct {
	seed    uint64
	short   bool
	workers int // goroutine bound for every parallel stage

	// cache is the optional content-addressed result cache
	// (-cache-dir/-cache-mem): experiments over the same corpus
	// workload then share parent pricing (one sweep.price entry per
	// config) instead of recomputing it. Nil disables it; results are
	// identical either way.
	cache *cache.Cache
	fps   map[*trace.Workload]trace.Fingerprint

	suite []*trace.Workload
	evals []gameEval // filled by ensureEvals (E2-E4)
}

// subsetOptions is the default subset configuration with the run's
// worker bound applied.
func (c *ctx) subsetOptions() subset.Options {
	opt := subset.DefaultOptions()
	opt.Workers = c.workers
	return opt
}

// wctx returns a context carrying the run's result cache bound to w.
// Fingerprints are memoized per workload (the corpus is built once and
// shared), so repeated stages hash each workload only once. Without a
// cache it is a plain background context.
func (c *ctx) wctx(w *trace.Workload) context.Context {
	if c.cache == nil {
		return context.Background()
	}
	if c.fps == nil {
		c.fps = make(map[*trace.Workload]trace.Fingerprint)
	}
	fp, ok := c.fps[w]
	if !ok {
		fp = w.Fingerprint()
		c.fps[w] = fp
	}
	return cache.WithWorkload(context.Background(), c.cache, fp)
}

func (c *ctx) ensureSuite() error {
	if c.suite != nil {
		return nil
	}
	profiles := synth.SuiteProfiles()
	for i, p := range profiles {
		if c.short {
			p.Frames = 48
		}
		w, err := synth.Generate(p, c.seed+uint64(i)*0x9e3779b97f4a7c15)
		if err != nil {
			return err
		}
		c.suite = append(c.suite, w)
	}
	return nil
}

// errClass buckets experiment failures for the structured log:
// ingestion failures keep their traceerr taxonomy, everything else
// falls back to the generic obs classes.
func errClass(err error) string {
	switch {
	case errors.Is(err, traceerr.ErrTruncated):
		return "truncated"
	case errors.Is(err, traceerr.ErrCorruptRecord):
		return "corrupt-record"
	case errors.Is(err, traceerr.ErrVersionMismatch):
		return "version-mismatch"
	case errors.Is(err, traceerr.ErrInvalidFrame):
		return "invalid-frame"
	case errors.Is(err, traceerr.ErrTooLarge):
		return "too-large"
	default:
		return obs.ErrorClass(err)
	}
}

func main() {
	var (
		runList  = flag.String("run", "", "comma-separated experiment ids (default: all)")
		seed     = flag.Uint64("seed", 42, "corpus seed")
		short    = flag.Bool("short", false, "shrink corpus to 48 frames/game for quick runs")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "max goroutines for evaluations and sweeps (results are identical at any count)")
		cacheDir = flag.String("cache-dir", "", "directory for the on-disk result cache (empty = memory-only when -cache-mem is set, else no caching)")
		cacheMem = flag.Int("cache-mem", 0, "in-memory result cache budget in MiB (0 with no -cache-dir disables caching)")
		logLevel = flag.String("log-level", "error", "structured logging to stderr: debug, info, warn, error or off")
		manifest = flag.String("manifest", "", "write the run manifest (one stage per experiment, metrics, durations) to this JSON file")
		pprofDir = flag.String("pprof-dir", "", "write cpu.pprof and heap.pprof to this directory")
	)
	flag.Parse()

	run, stopProf, err := obs.SetupCLI("experiments", *logLevel, *pprofDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run.SetWorkers(*workers)
	finish := func(code int) {
		if err := stopProf(); err != nil {
			run.Logger().Error("profile flush failed", "err", err)
		}
		if err := run.WriteManifest(*manifest); err != nil {
			run.Logger().Error("manifest write failed", "path", *manifest, "err", err)
		}
		os.Exit(code)
	}

	selected := map[string]bool{}
	if *runList != "" {
		for _, id := range strings.Split(*runList, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
		known := map[string]bool{}
		for _, e := range experiments {
			known[e.id] = true
		}
		var unknown []string
		for id := range selected {
			if !known[id] {
				unknown = append(unknown, id)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			run.Logger().Error("unknown experiment ids", "ids", fmt.Sprint(unknown), "class", "usage")
			finish(2)
		}
	}

	c := &ctx{seed: *seed, short: *short, workers: *workers}
	c.cache, err = cache.FromFlags(*cacheDir, *cacheMem)
	if err != nil {
		run.Logger().Error("cache setup failed", "err", err, "class", obs.ErrorClass(err))
		finish(2)
	}

	if failed := runAll(experiments, selected, c, run, os.Stdout); failed > 0 {
		finish(1)
	}
	finish(0)
}

// runAll executes the selected experiments in order. A failed
// experiment is logged with its error class and skipped — the
// remaining experiments still run, since each regenerates an
// independent table — and the number of failures is returned so main
// can exit nonzero after the batch completes.
func runAll(exps []experiment, selected map[string]bool, c *ctx, run *obs.Run, out io.Writer) int {
	failed := 0
	for _, e := range exps {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		fmt.Fprintf(out, "==== %s: %s ====\n", e.id, e.title)
		run.Logger().Info("experiment start", "id", e.id, "title", e.title)
		sp := run.Root().Child(e.id)
		start := time.Now()
		err := e.run(c)
		sp.End()
		if err != nil {
			failed++
			run.Logger().Error("experiment failed",
				"id", e.id,
				"dur", time.Since(start).Round(time.Millisecond),
				"class", errClass(err),
				"err", err)
			fmt.Fprintf(out, "---- %s FAILED after %s: %v ----\n\n", e.id, time.Since(start).Round(time.Millisecond), err)
			continue
		}
		fmt.Fprintf(out, "---- %s done in %s ----\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		run.Logger().Error("experiment batch finished with failures", "failed", failed, "class", "partial-failure")
	}
	return failed
}
