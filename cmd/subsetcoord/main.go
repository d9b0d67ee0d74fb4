// Command subsetcoord drives a config-grid sweep across a fleet of
// subsetd workers: it registers the trace on every worker, plans the
// grid into shards, fans POST /v1/shard/sweep dispatches out with
// per-shard timeouts, bounded retry (honoring Retry-After) and work
// stealing, merges the returned manifests with shard.Merge, and prints
// the same sweep table a single-process `gpusim -grid-core ...` run
// prints — byte-identical, which the chaos suite asserts with cmp.
//
// Usage:
//
//	subsetcoord -workers http://127.0.0.1:8741,http://127.0.0.1:8742 \
//	  -trace game.trace -grid-core 0.5,1.0,1.5 -grid-mem 0.8,1.2 \
//	  -sweep-out run.json
//
// The sweep table goes to stdout; dispatch accounting (per-worker
// shares, steals, retries, duplicates) goes to stderr via the
// structured logger, so stdout stays byte-comparable with the
// sequential path. Workers may die mid-sweep: their shards are stolen
// by the rest of the fleet, and a worker relaunched on the same cache
// dir rebuilds its registry from disk and rejoins — the merged result
// is identical either way, or the run fails loudly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/obs"
	"repro/internal/shard"
)

type config struct {
	workers      string
	tracePath    string
	workload     string
	gridCore     string
	gridMem      string
	shards       int
	shardTimeout time.Duration
	attempts     int
	maxAttempts  int
	backoff      time.Duration
	timeout      time.Duration
	sweepOut     string

	logLevel string
	manifest string
	pprofDir string

	out io.Writer
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workers, "workers", "", "comma-separated subsetd base URLs (required)")
	flag.StringVar(&cfg.tracePath, "trace", "", "input trace file, uploaded to every worker (stream container, JSON or legacy gob)")
	flag.StringVar(&cfg.workload, "workload", "", "hex fingerprint of a workload already registered on every worker (alternative to -trace)")
	flag.StringVar(&cfg.gridCore, "grid-core", "", "comma-separated core clocks (GHz; empty = default ladder)")
	flag.StringVar(&cfg.gridMem, "grid-mem", "", "comma-separated memory clocks (GHz; empty = 1.0)")
	flag.IntVar(&cfg.shards, "shards", 0, "work units to split the grid into (0 = 2x worker count)")
	flag.DurationVar(&cfg.shardTimeout, "shard-timeout", 2*time.Minute, "per-attempt deadline before a shard is stolen from a slow worker")
	flag.IntVar(&cfg.attempts, "attempts", 3, "same-worker retries per dispatch before the shard is handed to another worker")
	flag.IntVar(&cfg.maxAttempts, "max-attempts", 0, "total dispatches per shard across the fleet before the sweep fails (0 = 2x workers + 4)")
	flag.DurationVar(&cfg.backoff, "backoff", 50*time.Millisecond, "initial retry backoff (doubles; Retry-After overrides)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the whole sweep after this long (0 = no limit)")
	flag.StringVar(&cfg.sweepOut, "sweep-out", "", "write the merged run manifest (JSON) to this file")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "structured logging to stderr: debug, info, warn, error or off")
	flag.StringVar(&cfg.manifest, "manifest", "", "write the coordinator's run manifest to this JSON file")
	flag.StringVar(&cfg.pprofDir, "pprof-dir", "", "write cpu.pprof and heap.pprof to this directory")
	flag.Parse()
	cfg.out = os.Stdout
	if cfg.workers == "" {
		fmt.Fprintln(os.Stderr, "subsetcoord: -workers is required")
		flag.Usage()
		os.Exit(2)
	}
	if (cfg.tracePath == "") == (cfg.workload == "") {
		fmt.Fprintln(os.Stderr, "subsetcoord: exactly one of -trace or -workload is required")
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
		fmt.Fprintln(os.Stderr, "subsetcoord:", err)
		os.Exit(1)
	}
}

// parseWorkers splits the -workers list and normalizes trailing
// slashes so URL joining stays uniform.
func parseWorkers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		p = strings.TrimSuffix(p, "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseClocks parses a comma-separated clock list; empty means "use
// the default", exactly like gpusim's grid flags, so the two tools
// plan identical grids (and identical grid digests) from identical
// flags.
func parseClocks(flagName, s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
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

func execute(ctx context.Context, cfg config) error {
	run, stopProf, err := obs.SetupCLI("subsetcoord", cfg.logLevel, cfg.pprofDir)
	if err != nil {
		return err
	}
	ctx = run.Context(ctx)

	core, err := parseClocks("-grid-core", cfg.gridCore)
	if err != nil {
		return err
	}
	mem, err := parseClocks("-grid-mem", cfg.gridMem)
	if err != nil {
		return err
	}

	co, err := coord.New(coord.Options{
		Workers:           parseWorkers(cfg.workers),
		Shards:            cfg.shards,
		ShardTimeout:      cfg.shardTimeout,
		AttemptsPerWorker: cfg.attempts,
		MaxAttempts:       cfg.maxAttempts,
		Backoff:           cfg.backoff,
		Run:               run,
	})
	if err != nil {
		return err
	}

	if cfg.tracePath != "" {
		traceBytes, err := os.ReadFile(cfg.tracePath)
		if err != nil {
			return err
		}
		run.RecordFile("input", cfg.tracePath)
		fp, err := co.Register(ctx, traceBytes)
		if err != nil {
			return err
		}
		run.Logger().Info("trace registered", "fingerprint", fp)
	} else if err := co.SetWorkload(cfg.workload); err != nil {
		return err
	}

	rm, st, err := co.Sweep(ctx, core, mem)
	reportStats(run, st)
	if err != nil {
		return err
	}
	// stdout carries ONLY the sweep table — the byte-comparable
	// contract with `gpusim -grid-core ...` sequential output.
	rm.Render(cfg.out)
	if err := writeSweepOut(cfg, rm); err != nil {
		return err
	}

	if perr := stopProf(); err == nil {
		err = perr
	}
	if merr := run.WriteManifest(cfg.manifest); err == nil {
		err = merr
	}
	return err
}

// reportStats logs the dispatch accounting to stderr (never stdout).
func reportStats(run *obs.Run, st coord.Stats) {
	run.Logger().Info("dispatch complete",
		"shards", st.Shards, "attempts", st.Attempts, "completed", st.Completed,
		"steals", st.Steals, "retries", st.Retries, "duplicates", st.Duplicates,
		"reuploads", st.Reuploads)
	for w, wc := range st.PerWorker {
		run.Logger().Info("worker share", "worker", w,
			"completed", wc.Completed, "failures", wc.Failures,
			"retries", wc.Retries, "busy", time.Duration(wc.BusyNs).Round(time.Millisecond))
	}
}

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
