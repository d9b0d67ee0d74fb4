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
// The experiments that report the pipeline's results (E2-E4, E6-E8,
// E11, E12, E16, E19, E20) read one core.RunSuite pass over the corpus,
// run once per invocation and shared.
//
// Failures are reported through the structured logger (default
// -log-level error) with the experiment id, duration and error class;
// -manifest out.json exports a run manifest with one stage per
// experiment, and -pprof-dir writes CPU/heap profiles.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// paperSeed is the corpus seed the published tables and the paper
// claims gate use.
const paperSeed = 42

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

// ctx carries a run's settings, its output and the lazily built
// corpus and pipeline pass the experiments share.
type ctx struct {
	seed    uint64
	short   bool
	workers int       // goroutine bound for every parallel stage
	out     io.Writer // every table and banner goes here

	suite   []*trace.Workload
	reports *core.SuiteReport // filled by ensureReports
}

// frames is each game's length: 48 under -short, else 0, which keeps
// each profile's own length.
func (c *ctx) frames() int {
	if c.short {
		return 48
	}
	return 0
}

func (c *ctx) ensureSuite() error {
	if c.suite != nil {
		return nil
	}
	var err error
	c.suite, err = synth.BioshockSuite(c.seed, c.frames())
	return err
}

// ensureReports runs the pipeline once per game, with default options
// and the run's worker bound: one report per game, in corpus order.
func (c *ctx) ensureReports() error {
	if c.reports != nil {
		return nil
	}
	if err := c.ensureSuite(); err != nil {
		return err
	}
	opt := core.DefaultOptions()
	opt.Workers = c.workers
	s, err := core.New(opt)
	if err != nil {
		return err
	}
	c.reports, err = s.RunSuite(c.suite)
	return err
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
		seed     = flag.Uint64("seed", paperSeed, "corpus seed")
		short    = flag.Bool("short", false, "shrink corpus to 48 frames/game for quick runs")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "max goroutines for evaluations and sweeps (results are identical at any count)")
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

	c := &ctx{seed: *seed, short: *short, workers: *workers, out: os.Stdout}
	if failed := runAll(experiments, selected, c, run); failed > 0 {
		finish(1)
	}
	finish(0)
}

// runAll executes the selected experiments in order. A failed
// experiment is logged with its error class and skipped — the
// remaining experiments still run, since each regenerates an
// independent table — and the number of failures is returned so main
// can exit nonzero after the batch completes.
func runAll(exps []experiment, selected map[string]bool, c *ctx, run *obs.Run) int {
	failed := 0
	for _, e := range exps {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		fmt.Fprintf(c.out, "==== %s: %s ====\n", e.id, e.title)
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
			fmt.Fprintf(c.out, "---- %s FAILED after %s: %v ----\n\n", e.id, time.Since(start).Round(time.Millisecond), err)
			continue
		}
		fmt.Fprintf(c.out, "---- %s done in %s ----\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		run.Logger().Error("experiment batch finished with failures", "failed", failed, "class", "partial-failure")
	}
	return failed
}
