// Package serve is the subsetting pipeline as a long-running service:
// the HTTP/JSON layer of subsetd. It accepts trace uploads (lenient
// stream-v2 ingestion for hostile input), registers workloads in a
// multi-tenant registry keyed by content fingerprint, and answers
// subset/sweep/price queries from the content-addressed result cache.
//
// The robustness model, enforced by the tests in this package:
//
//   - Admission control with load shedding. At most MaxConcurrent
//     requests execute at once; up to QueueDepth more wait at most
//     QueueWait. Beyond that the server sheds with 429 + Retry-After
//     instead of collapsing — overload degrades arrivals, never
//     latency of admitted work.
//   - Per-request deadlines. Every request runs under RequestTimeout;
//     cancellation threads through the pipeline (core, sweep, cache
//     disk I/O), so a slow query costs its own budget and nothing
//     else's.
//   - Single-flight coalescing. Identical in-flight queries share one
//     execution and one marshaled response (X-Subsetd-Coalesced marks
//     the followers).
//   - Panic containment. A panicking handler answers 500 to its own
//     request (stack logged server-side) and leaves every other
//     request untouched; a panicking query computation answers 500 to
//     its request and to the followers coalesced onto it.
//   - Typed failure mapping. Every error class in the traceerr
//     taxonomy maps onto a specific HTTP status; clients branch on
//     the machine-readable "class" field, not message strings.
//   - Graceful drain. Drain stops admitting, waits out in-flight
//     requests, and flushes the result cache;
//     subsetd drives it from SIGTERM and then emits the final run
//     manifest.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Options configures a Server. The zero value of every field selects a
// production-safe default.
type Options struct {
	// MaxBodyBytes caps an upload body (default 256 MiB). Oversized
	// uploads answer 413.
	MaxBodyBytes int64

	// RequestTimeout is the per-request compute deadline (default
	// 60s). Expiry answers 504.
	RequestTimeout time.Duration

	// MaxConcurrent bounds requests executing at once (default
	// 2 x GOMAXPROCS).
	MaxConcurrent int

	// QueueDepth bounds requests waiting for an execution slot
	// (default 4 x MaxConcurrent). Arrivals beyond it shed immediately
	// with 429.
	QueueDepth int

	// QueueWait bounds how long a queued request waits before it is
	// shed with 429 (default 2s).
	QueueWait time.Duration

	// ReadyMaxQueue is the admission-queue depth at which /readyz
	// starts answering 503 (default 3/4 of QueueDepth, at least 1):
	// load balancers stop routing to the instance before arrivals
	// start shedding, not after.
	ReadyMaxQueue int

	// RetryAfter is the hint sent with 429/503 responses (default 1s).
	RetryAfter time.Duration

	// Workers bounds the parallel engine inside each pipeline run
	// (default GOMAXPROCS).
	Workers int

	// MaxWorkloads caps the registry (default 64). Uploads beyond it
	// answer 507.
	MaxWorkloads int

	// Strict disables lenient upload sanitization: damaged uploads are
	// then rejected with their taxonomy class instead of repaired.
	Strict bool

	// Cache is the content-addressed result cache queries are served
	// from. Nil disables caching (every query recomputes).
	Cache *cache.Cache

	// Run is the server's observability handle. Nil disables logging
	// and metrics.
	Run *obs.Run
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 256 << 20
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.MaxConcurrent
	}
	if o.QueueWait <= 0 {
		o.QueueWait = 2 * time.Second
	}
	if o.ReadyMaxQueue <= 0 {
		o.ReadyMaxQueue = o.QueueDepth * 3 / 4
		if o.ReadyMaxQueue < 1 {
			o.ReadyMaxQueue = 1
		}
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxWorkloads <= 0 {
		o.MaxWorkloads = 64
	}
	return o
}

// Server is the subsetd application layer. Construct with New; it is
// ready to serve as soon as New returns and must be shut down with
// Drain.
type Server struct {
	opt    Options
	run    *obs.Run
	reg    *registry
	adm    *admitter
	flight *flightGroup
	events *eventRing
	mux    *http.ServeMux
	start  time.Time

	// probes names the telemetry paths that bypass the drain gate:
	// liveness, readiness and metrics must stay observable while the
	// server finishes in-flight work, or operators go blind exactly
	// when they need the window most.
	probes map[string]bool

	inflightN atomic.Int64 // requests currently inside Handler

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup
}

// New builds a server.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:    opt,
		run:    opt.Run,
		reg:    newRegistry(opt.MaxWorkloads),
		adm:    newAdmitter(opt.MaxConcurrent, opt.QueueDepth, opt.QueueWait, opt.Run),
		flight: &flightGroup{},
		events: newEventRing(256),
		mux:    http.NewServeMux(),
		start:  time.Now(),
	}
	s.routes()
	return s
}

// Handler returns the server's HTTP handler: panic containment and
// in-flight tracking wrap every route. Telemetry probes (/healthz,
// /readyz, /metrics, /debug/events) skip the drain gate and the
// in-flight group — they are read-only against atomics and must keep
// answering while the server drains — but still ride the panic shield.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.probes[r.URL.Path] {
			release, ok := s.track()
			if !ok {
				s.writeErr(w, ErrDraining)
				return
			}
			defer release()
			s.run.Metrics().Counter("serve.requests").Inc()
		}

		sw := &statusWriter{ResponseWriter: w}
		if err := parallel.Call(-1, func() error {
			s.mux.ServeHTTP(sw, r)
			return nil
		}); err != nil {
			// A handler panicked. Answer this request with a 500 when
			// its response is still unwritten; every other request is
			// untouched.
			s.run.Metrics().Counter("serve.panics").Inc()
			s.run.Logger().Error("request panicked", "method", r.Method, "path", r.URL.Path, "err", err)
			if !sw.wrote {
				s.writeErr(sw, err)
			}
		}
	})
}

// track registers one in-flight request; ok is false once draining
// started, in which case the caller must answer 503 without touching
// any subsystem that may already be shutting down.
func (s *Server) track() (release func(), ok bool) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return nil, false
	}
	s.inflight.Add(1)
	s.inflightN.Add(1)
	return func() {
		s.inflightN.Add(-1)
		s.inflight.Done()
	}, true
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// Drain is the graceful-shutdown sequence: stop admitting (new
// requests answer 503 + Retry-After), wait for in-flight requests to
// finish, and flush the result cache's disk tier.
// If ctx expires first the remaining in-flight requests are abandoned
// and the context's error returned; the caller (subsetd) still emits
// its final manifest either way. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.run.Logger().Info("drain started")

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with requests in flight: %w", ctx.Err())
	}
	s.opt.Cache.Flush()
	s.run.Logger().Info("drain complete",
		"requests", s.run.Metrics().Counter("serve.requests").Value(),
		"shed", s.run.Metrics().Counter("serve.shed").Value())
	return nil
}

// statusWriter records whether and what a handler answered, and how
// many body bytes it wrote — for panic containment and for the
// middleware's latency/size accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}
