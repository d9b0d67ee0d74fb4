// Command subsetd serves the subsetting pipeline over HTTP/JSON: a
// fault-tolerant daemon accepting trace uploads and answering
// subset/sweep/price queries from the content-addressed result cache.
//
// Usage:
//
//	subsetd -addr 127.0.0.1:8344 -cache-dir /var/cache/subsetd
//	subsetd -addr :8344 -max-concurrent 8 -queue-depth 32 -strict
//
// Endpoints:
//
//	POST /v1/workloads       upload a trace (stream container, JSON or
//	                         legacy gob, sniffed); lenient by default,
//	                         -strict to reject damaged uploads instead
//	GET  /v1/workloads       list registered workloads
//	GET  /v1/workloads/{fp}  one workload's summary
//	POST /v1/subset          {"workload": "<fp>", "validate": bool,
//	                          "clustering_eval": bool}
//	POST /v1/sweep           {"workload": "<fp>", "core_clocks": [...],
//	                          "mem_clocks": [...]}
//	POST /v1/price           {"workload": "<fp>", "core_clock_ghz": x,
//	                          "mem_clock_ghz": y}
//	GET  /v1/stats           service counters and cache statistics
//	GET  /metrics            Prometheus text exposition: request,
//	                         admission, cache and Go runtime families
//	GET  /healthz            liveness — 200 for as long as the process
//	                         can answer, even while draining
//	GET  /readyz             readiness — 503 once draining starts or the
//	                         admission queue backs up past
//	                         -ready-max-queue, so load balancers back
//	                         off before arrivals shed
//	GET  /debug/events       bounded ring of recent classified errors
//	                         and upload-degradation diagnostics
//
// Every response carries an X-Subsetd-Trace-Id header (echoing the
// request's, or generated), the key that ties a response to the
// server's logs and /debug/events entries.
//
// Robustness: per-request timeouts, admission control with load
// shedding (429 + Retry-After beyond -max-concurrent/-queue-depth),
// single-flight coalescing of identical queries, per-request panic
// containment, and body-size caps. SIGTERM/SIGINT drains gracefully:
// in-flight requests finish (bounded by -drain-timeout), the result
// cache is flushed, and the final run manifest is written to
// -manifest. The telemetry endpoints bypass the drain gate — the
// server stays observable through its shutdown window.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/serve"
)

type config struct {
	addr          string
	cacheDir      string
	cacheMem      int
	workers       int
	maxConcurrent int
	queueDepth    int
	queueWait     time.Duration
	readyMaxQ     int
	reqTimeout    time.Duration
	drainTimeout  time.Duration
	maxBodyMiB    int
	maxWorkloads  int
	strict        bool
	pidFile       string

	logLevel string
	manifest string
	pprofDir string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8344", "listen address")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "directory for the on-disk result cache (empty = memory-only when -cache-mem is set, else no caching)")
	flag.IntVar(&cfg.cacheMem, "cache-mem", 0, "in-memory result cache budget in MiB (0 with no -cache-dir disables caching)")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "max goroutines per pipeline run")
	flag.IntVar(&cfg.maxConcurrent, "max-concurrent", 0, "max requests executing at once (0 = 2x GOMAXPROCS)")
	flag.IntVar(&cfg.queueDepth, "queue-depth", 0, "max requests waiting for an execution slot before shedding (0 = 4x max-concurrent)")
	flag.DurationVar(&cfg.queueWait, "queue-wait", 2*time.Second, "max time a request queues before being shed with 429")
	flag.IntVar(&cfg.readyMaxQ, "ready-max-queue", 0, "admission-queue depth at which /readyz answers 503 (0 = 3/4 of queue-depth)")
	flag.DurationVar(&cfg.reqTimeout, "timeout", 60*time.Second, "per-request compute deadline")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	flag.IntVar(&cfg.maxBodyMiB, "max-body", 256, "upload body cap in MiB")
	flag.IntVar(&cfg.maxWorkloads, "max-workloads", 64, "registry capacity")
	flag.BoolVar(&cfg.strict, "strict", false, "reject damaged uploads instead of repairing them")
	flag.StringVar(&cfg.pidFile, "pid-file", "", "write the daemon PID to this file (removed on exit)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "structured logging to stderr: debug, info, warn, error or off")
	flag.StringVar(&cfg.manifest, "manifest", "", "write the final run manifest to this JSON file on shutdown")
	flag.StringVar(&cfg.pprofDir, "pprof-dir", "", "write cpu.pprof and heap.pprof to this directory")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := execute(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "subsetd:", err)
		os.Exit(1)
	}
}

func execute(ctx context.Context, cfg config) error {
	run, stopProf, err := obs.SetupCLI("subsetd", cfg.logLevel, cfg.pprofDir)
	if err != nil {
		return err
	}
	run.SetWorkers(cfg.workers)

	rcache, err := cache.FromFlags(cfg.cacheDir, cfg.cacheMem)
	if err != nil {
		return err
	}

	if cfg.pidFile != "" {
		if err := os.WriteFile(cfg.pidFile, []byte(strconv.Itoa(os.Getpid())+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing pid file: %w", err)
		}
		defer os.Remove(cfg.pidFile)
	}

	app := serve.New(serve.Options{
		MaxBodyBytes:   int64(cfg.maxBodyMiB) << 20,
		RequestTimeout: cfg.reqTimeout,
		MaxConcurrent:  cfg.maxConcurrent,
		QueueDepth:     cfg.queueDepth,
		QueueWait:      cfg.queueWait,
		ReadyMaxQueue:  cfg.readyMaxQ,
		Workers:        cfg.workers,
		MaxWorkloads:   cfg.maxWorkloads,
		Strict:         cfg.strict,
		Cache:          rcache,
		Run:            run,
	})

	// Registry persistence: rebuild the workload registry from the cache
	// dir's workload store before the listener opens, so a relaunched
	// worker serves shard dispatches for everything it knew — no
	// re-upload, no window where a known fingerprint answers 404.
	if restored, err := app.RestoreWorkloads(ctx); err != nil {
		return fmt.Errorf("restoring workloads: %w", err)
	} else if restored > 0 {
		run.Log.Info("registry restored from cache dir", "workloads", restored)
		fmt.Printf("restored %d workload(s) from cache dir\n", restored)
	}

	// Listen explicitly (not ListenAndServe) so "-addr 127.0.0.1:0"
	// binds an ephemeral port and the resolved address is printed —
	// the hook tests and scripted topologies parse it.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", cfg.addr, err)
	}
	httpSrv := &http.Server{
		Handler:           app.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	run.Log.Info("subsetd listening", "addr", ln.Addr().String(), "strict", cfg.strict, "cache", rcache != nil)
	fmt.Printf("subsetd listening on %s\n", ln.Addr())

	var serveErr error
	select {
	case <-ctx.Done():
		// Graceful drain: stop admitting (serve answers 503), finish
		// in-flight work, flush the cache, then close the listener.
		run.Log.Info("shutdown signal received", "drain_timeout", cfg.drainTimeout.String())
		dctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		if err := app.Drain(dctx); err != nil {
			run.Log.Warn("drain incomplete", "err", err)
			serveErr = err
		}
		if err := httpSrv.Shutdown(dctx); err != nil {
			run.Log.Warn("http shutdown incomplete", "err", err)
			if serveErr == nil {
				serveErr = err
			}
		}
		<-errCh // ListenAndServe has returned ErrServerClosed
	case err := <-errCh:
		// Listener died on its own (bind failure, socket error).
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			serveErr = err
		}
	}

	if perr := stopProf(); serveErr == nil {
		serveErr = perr
	}
	// The final manifest is the service's flight record: totals for
	// requests served, shed, coalesced, panics contained, cache hits.
	if merr := run.WriteManifest(cfg.manifest); serveErr == nil {
		serveErr = merr
	}
	return serveErr
}
