// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload in-process against the real packages, through the
// entry points the CLIs use with their defaults, checks every output,
// and prints its metrics as one JSON object on the last line of
// standard output.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
//
// Workloads: pipeline, grid, serve and fleet (see README.md). The
// corpus is generated from --seed with internal/synth, so the same seed
// gives the same inputs. --trace 0 prints the end-to-end metrics;
// --trace 1 runs the traced variant, which times each call the
// benchmark makes into a layer, prints the per-layer metrics and writes
// its spans to .bench_build/perfbench/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// setups is how many times a run sets its workload up, each time from
// a released heap; setup_s is the median.
const setups = 5

// outDir receives the traced run's spans and serve's cache
// directories, relative to the working directory (the repository
// root).
const outDir = ".bench_build/perfbench"

// instance is one set-up workload, ready for its first timed unit.
type instance interface {
	// reference computes the outputs every timed unit is checked
	// against. It runs once, after set-up, and is not timed.
	reference(ctx context.Context, rec *recorder) error
	// measure runs timed units until the deadline; tr is nil on an
	// untraced run.
	measure(ctx context.Context, deadline time.Time, rec *recorder, tr *tracer) error
	// layers fills the per-layer metrics the workload exercises from
	// the traced run's spans and the layers' own counters.
	layers(lm map[string]float64, tr *tracer, rec *recorder)
	close() error
}

// setupFunc builds a workload's inputs from the seed and brings it to
// its first timed unit. gen is the share of that time spent generating
// the corpus.
type setupFunc func(ctx context.Context, seed uint64) (inst instance, gen time.Duration, err error)

var workloads = map[string]setupFunc{
	"pipeline": setupPipeline,
	"grid":     setupGrid,
	"serve":    setupServe,
	"fleet":    setupFleet,
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_p50_ms", "ms"},
	{"items_per_s", "1/s"},
	{"cpu_ms_per_unit", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run prints, on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"trace.decode_ms", "ms"},
	{"trace.validate_ms", "ms"},
	{"gpu.new_simulator_ms", "ms"},
	{"gpu.new_simulator_calls", "count"},
	{"subset.new_clusterer_ms", "ms"},
	{"metrics.evaluate_ms", "ms"},
	{"subset.build_ms", "ms"},
	{"sweep.validation_ms", "ms"},
	{"sweep.price_config_ms", "ms"},
	{"sweep.ns_per_draw_config", "ns"},
	{"report.render_ms", "ms"},
	{"trace.fingerprint_ms", "ms"},
	{"shard.plan_ms", "ms"},
	{"shard.fold_ms", "ms"},
	{"shard.manifest_kb", "KB"},
	{"coord.merge_ms", "ms"},
	{"coord.busy_max_ms", "ms"},
	{"coord.busy_min_ms", "ms"},
	{"coord.overhead_ms", "ms"},
	{"coord.attempts_per_shard", "count"},
	{"coord.retries", "count"},
	{"coord.steals", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.p90_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.requests", "count"},
	{"serve.handler_ms", "ms"},
	{"serve.batch_queue_ms", "ms"},
	{"serve.batch_size", "count"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.shed_ratio", "ratio"},
	{"serve.items_per_s", "1/s"},
	{"cache.hit_ratio", "ratio"},
	{"cache.misses", "count"},
	{"cache.evictions", "count"},
	{"obs.scrape_ms", "ms"},
	{"obs.scrape_kb", "KB"},
	{"accuracy.pred_err_pct", "%"},
	{"accuracy.cluster_eff_pct", "%"},
	{"accuracy.subset_size_pct", "%"},
	{"accuracy.speedup_corr", "ratio"},
	{"parallel.cores_busy", "cores"},
	{"go.alloc_mb_per_unit", "MB"},
	{"go.gc_per_unit", "count"},
	{"bench.gen_s", "s"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: pipeline, grid, serve or fleet")
	fs.Uint64Var(&cfg.seed, "seed", 1, "corpus seed")
	fs.IntVar(&cfg.seconds, "seconds", 20, "how long the timed phase runs")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want pipeline, grid, serve or fleet)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds %d < 1", cfg.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("--trace %d: want 0 or 1", traceFlag)
	}
	cfg.trace = traceFlag == 1
	return cfg, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func execute(ctx context.Context, cfg config) (*result, error) {
	setup := workloads[cfg.workload]
	var setupS, genS []float64
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
		}
		// Each set-up starts with the heap collected and its pages
		// returned to the OS, so it faults its memory in as a fresh
		// process does.
		debug.FreeOSMemory()
		t0 := time.Now()
		in, gen, err := setup(ctx, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		genS = append(genS, gen.Seconds())
		inst = in
	}
	defer inst.close()

	rec := &recorder{}
	if err := inst.reference(ctx, rec); err != nil {
		return nil, fmt.Errorf("%s reference: %w", cfg.workload, err)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	runtime.GC()
	win := startWindow()
	err := inst.measure(ctx, time.Now().Add(time.Duration(cfg.seconds)*time.Second), rec, tr)
	win.stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if rec.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed; first: %v\n",
			cfg.workload, rec.failed, rec.attempted, rec.firstErr)
	}

	values := map[string]float64{}
	defs := endToEnd
	// Units that ran one at a time carry their own rate, CPU time and
	// allocation, reported at the median untraced unit; serve's
	// requests overlap, so theirs come from the whole window.
	units, items := rec.totals()
	perUnit := func(get func(sample) float64, whole float64) float64 {
		if rec.sequential {
			return median(rec.column(untraced, get))
		}
		return ratio(whole, float64(units))
	}
	if cfg.trace {
		defs = perLayer
		for _, d := range perLayer {
			values[d.name] = 0
		}
		tr.finish()
		values["go.alloc_mb_per_unit"] = perUnit(func(s sample) float64 { return s.allocMB }, win.allocMB)
		values["go.gc_per_unit"] = perUnit(func(s sample) float64 { return s.gcs }, win.gcs)
		values["parallel.cores_busy"] = ratio(win.cpu.Seconds(), win.wall.Seconds())
		values["bench.gen_s"] = median(genS)
		plain := median(rec.durations(untraced))
		values["bench.trace_overhead_pct"] = 100 * ratio(median(rec.durations(traced))-plain, plain)
		values["bench.unattributed_pct"] = tr.unattributedPct()
		inst.layers(values, tr, rec)
		path := fmt.Sprintf("%s/spans-%s-seed%d.json", outDir, cfg.workload, cfg.seed)
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(tr.spans), path)
	} else {
		values["setup_s"] = median(setupS)
		values["wall_p50_ms"] = median(rec.durations(anySample))
		if rec.sequential {
			values["items_per_s"] = median(rec.column(anySample, func(s sample) float64 {
				return float64(s.items) / s.dur.Seconds()
			}))
		} else {
			values["items_per_s"] = ratio(float64(items), win.wall.Seconds())
		}
		values["cpu_ms_per_unit"] = perUnit(func(s sample) float64 { return ms(s.cpu) }, ms(win.cpu))
		values["peak_rss_mb"] = peakRSSMB()
	}

	res := &result{
		Correct:   rec.failed == 0 && rec.attempted > 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}
