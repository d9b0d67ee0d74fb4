package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/parallel"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// MaxSweepConfigs caps one sweep request's grid: a grid is priced
// config-by-config inside the request's own deadline, and an unbounded
// grid is an unbounded request. Exported so dispatchers (the sweep
// coordinator) can reject an oversized grid before fanning it out.
const MaxSweepConfigs = 1024

// maxReqBytes caps a JSON query body (not an upload).
const maxReqBytes = 1 << 20

func (s *Server) routes() {
	s.handle("upload", "POST /v1/workloads", true, s.handleUpload)
	s.handle("list", "GET /v1/workloads", false, s.handleList)
	s.handle("get", "GET /v1/workloads/{fp}", false, s.handleGet)
	s.handle("subset", "POST /v1/subset", true, s.handleSubset)
	s.handle("sweep", "POST /v1/sweep", true, s.handleSweep)
	s.handle("shard-sweep", "POST /v1/shard/sweep", true, s.handleShardSweep)
	s.handle("price", "POST /v1/price", true, s.handlePrice)
	s.handle("stats", "GET /v1/stats", false, s.handleStats)
	s.handle("metrics", "GET /metrics", false, s.handleMetrics)
	s.handle("healthz", "GET /healthz", false, s.handleHealthz)
	s.handle("readyz", "GET /readyz", false, s.handleReadyz)
	s.handle("events", "GET /debug/events", false, s.handleEvents)
	s.probes = map[string]bool{
		"/metrics":      true,
		"/healthz":      true,
		"/readyz":       true,
		"/debug/events": true,
	}
}

// handle registers one route with the service middleware: trace-ID
// assignment/propagation (TraceHeader, echoed on the response and
// bound into the request context), per-route/per-status latency and
// body-size histograms, the route's merged span, admission control
// (when admit — the compute-bearing routes), the per-request deadline,
// and the span-detached observability context. Route names are
// threaded explicitly because the request's matched pattern is not
// available at this language level.
func (s *Server) handle(name, pattern string, admit bool, fn http.HandlerFunc) {
	sp := s.run.Root().MergedChild("route." + name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tid, _ := requestTraceID(r)
		rw := &statusWriter{ResponseWriter: w}
		rw.Header().Set(TraceHeader, tid)
		defer func() {
			el := time.Since(start)
			status := http.StatusOK
			if rw.wrote {
				status = rw.status
			}
			code := strconv.Itoa(status)
			m := s.run.Metrics()
			m.Counter(export.Label("serve.http.requests", "route", name, "status", code)).Inc()
			m.Histogram(export.Label("serve.http.latency_ms", "route", name, "status", code)).
				Observe(float64(el.Microseconds()) / 1000)
			if r.ContentLength > 0 {
				m.Histogram(export.Label("serve.http.request_bytes", "route", name)).
					Observe(float64(r.ContentLength))
			}
			m.Histogram(export.Label("serve.http.response_bytes", "route", name)).
				Observe(float64(rw.bytes))
			sp.AddItems(1)
			sp.AddDuration(el)
			if status >= 400 {
				s.events.add(Event{
					Time:    time.Now().UTC(),
					TraceID: tid,
					Route:   name,
					Method:  r.Method,
					Status:  status,
					Class:   rw.Header().Get(errClassHeader),
				})
			}
			s.run.Logger().Debug("request done",
				"route", name, "status", status, "trace", tid,
				"dur", el.Round(time.Microsecond))
		}()

		if admit {
			release, err := s.adm.admit(r.Context())
			if err != nil {
				s.writeErr(rw, err)
				return
			}
			defer release()
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
		defer cancel()
		ctx = context.WithValue(ctx, traceKey{}, tid)
		// Attach the run but detach span recording: per-request child
		// spans would grow the manifest's stage tree without bound over
		// a server's lifetime. Metrics and the logger still flow; the
		// trace ID binds this request's telemetry to the route's merged
		// span via logs and events instead of a per-request span.
		if s.run != nil {
			ctx = obs.ContextWithSpan(s.run.Context(ctx), nil)
		}
		fn(rw, r.WithContext(ctx))
	})
}

// UploadResponse reports what ingestion made of an upload.
type UploadResponse struct {
	Name              string `json:"name"`
	Fingerprint       string `json:"fingerprint"`
	Frames            int    `json:"frames"`
	Draws             int    `json:"draws"`
	Format            string `json:"format"` // "stream", "gob" or "json"
	AlreadyRegistered bool   `json:"already_registered"`
	// Degraded is true when lenient ingestion repaired damage;
	// Diagnostics accounts for exactly what was dropped.
	Degraded    bool                 `json:"degraded"`
	Diagnostics traceerr.Diagnostics `json:"diagnostics"`
}

// handleUpload ingests a workload in any of its forms, which the trace
// reader sniffs: a stream container (what Encode and EncodeStream
// write), JSON (what EncodeJSON writes), or a legacy gob form. Lenient
// by default — damaged uploads are repaired with the damage accounted
// in the response — strict when the server was configured Strict.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	defer body.Close()
	var (
		wl   *trace.Workload
		diag traceerr.Diagnostics
	)
	tr, err := trace.NewStreamReader(body, trace.ReaderOptions{Lenient: !s.opt.Strict})
	if err == nil {
		wl, diag, err = tr.ReadAll()
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}

	e := &workloadEntry{
		W:       wl,
		FP:      wl.Fingerprint(),
		Summary: trace.Summarize(wl),
		Diag:    diag,
		Format:  tr.Format(),
	}
	created, err := s.reg.register(e)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if created {
		// Persist the sanitized workload into the cache dir's workload
		// store so a restarted server rebuilds its registry from disk
		// (RestoreWorkloads). Best-effort: a full disk must not fail the
		// upload the registry already accepted.
		if serr := s.opt.Cache.StoreWorkload(wl); serr != nil {
			s.run.Logger().Warn("workload persistence failed", "workload", wl.Name,
				"fingerprint", e.FP.String(), "err", serr)
		} else if s.opt.Cache.Dir() != "" {
			s.run.Metrics().Counter("serve.workloads_persisted").Inc()
		}
	}
	s.run.RecordDiagnostics(diag.Map())
	if diag.Any() {
		s.run.Logger().Warn("upload degraded", "workload", wl.Name, "diag", diag.String(),
			"trace", TraceIDFrom(r.Context()))
		s.events.add(Event{
			Time:    time.Now().UTC(),
			TraceID: TraceIDFrom(r.Context()),
			Route:   "upload",
			Method:  r.Method,
			Status:  http.StatusCreated,
			Class:   "degraded",
			Detail:  diag.String(),
		})
	}
	s.run.Logger().Info("workload registered", "workload", wl.Name,
		"fingerprint", e.FP.String(), "frames", e.Summary.Frames, "created", created)

	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	s.writeJSON(w, status, UploadResponse{
		Name:              wl.Name,
		Fingerprint:       e.FP.String(),
		Frames:            e.Summary.Frames,
		Draws:             e.Summary.Draws,
		Format:            tr.Format(),
		AlreadyRegistered: !created,
		Degraded:          diag.Any(),
		Diagnostics:       diag,
	})
}

// WorkloadInfo is one registry listing entry.
type WorkloadInfo struct {
	Name        string               `json:"name"`
	Fingerprint string               `json:"fingerprint"`
	Frames      int                  `json:"frames"`
	Draws       int                  `json:"draws"`
	Format      string               `json:"format"`
	Degraded    bool                 `json:"degraded"`
	Diagnostics traceerr.Diagnostics `json:"diagnostics"`
}

func infoOf(e *workloadEntry) WorkloadInfo {
	return WorkloadInfo{
		Name:        e.W.Name,
		Fingerprint: e.FP.String(),
		Frames:      e.Summary.Frames,
		Draws:       e.Summary.Draws,
		Format:      e.Format,
		Degraded:    e.Diag.Any(),
		Diagnostics: e.Diag,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	out := make([]WorkloadInfo, len(entries))
	for i, e := range entries {
		out[i] = infoOf(e)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	e, err := s.reg.get(r.PathValue("fp"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"info":    infoOf(e),
		"summary": e.Summary,
	})
}

// SubsetRequest asks for a representative subset of a registered
// workload.
type SubsetRequest struct {
	// Workload is the hex fingerprint returned by upload.
	Workload string `json:"workload"`

	// ClusteringEval enables the per-frame clustering quality
	// evaluation (prices every draw — the expensive part).
	ClusteringEval bool `json:"clustering_eval"`

	// Validate enables the frequency-scaling validation sweep.
	Validate bool `json:"validate"`
}

// SubsetResponse is the query result. The result cache stores its JSON
// body, the bytes the query answers, so a warm query skips the
// pipeline and the encoding entirely.
type SubsetResponse struct {
	Workload      string  `json:"workload"`
	SubsetFrames  []int   `json:"subset_frames"`
	SubsetDraws   int     `json:"subset_draws"`
	SizeRatio     float64 `json:"size_ratio"`
	NumPhases     int     `json:"num_phases"`
	PhaseTimeline string  `json:"phase_timeline"`

	// Clustering quality (present when ClusteringEval was set).
	MeanError      float64 `json:"mean_error,omitempty"`
	MeanEfficiency float64 `json:"mean_efficiency,omitempty"`

	// Validation statistics (present when Validate was set).
	Correlation     float64 `json:"correlation,omitempty"`
	RankCorrelation float64 `json:"rank_correlation,omitempty"`

	Diagnostics traceerr.Diagnostics `json:"diagnostics"`
}

func (s *Server) handleSubset(w http.ResponseWriter, r *http.Request) {
	var req SubsetRequest
	if err := s.decodeReq(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	e, err := s.reg.get(req.Workload)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	key := cache.NewKey("serve.subset", 4).
		Bytes(e.FP[:]).
		Bool(req.ClusteringEval).
		Bool(req.Validate).
		Sum()
	s.runQuery(w, r, key, s.opt.Cache, func(ctx context.Context) (any, error) {
		return s.computeSubset(ctx, e, req)
	})
}

func (s *Server) computeSubset(ctx context.Context, e *workloadEntry, req SubsetRequest) (SubsetResponse, error) {
	opt := core.DefaultOptions()
	opt.SkipClusteringEval = !req.ClusteringEval
	if !req.Validate {
		opt.ValidationClocks = nil
	}
	opt.Workers = s.opt.Workers
	sub, err := core.New(opt)
	if err != nil {
		return SubsetResponse{}, err
	}
	rep, err := sub.RunContext(ctx, e.W)
	if err != nil {
		return SubsetResponse{}, err
	}
	frames := make([]int, len(rep.Subset.Frames))
	for i := range rep.Subset.Frames {
		frames[i] = rep.Subset.Frames[i].ParentFrame
	}
	resp := SubsetResponse{
		Workload:      e.FP.String(),
		SubsetFrames:  frames,
		SubsetDraws:   rep.Subset.NumDraws(),
		SizeRatio:     rep.SizeRatio,
		NumPhases:     rep.Detection.NumPhases,
		PhaseTimeline: rep.PhaseTimeline(),
		Diagnostics:   rep.Diagnostics,
	}
	if rep.Clustering != nil {
		resp.MeanError = rep.Clustering.MeanError
		resp.MeanEfficiency = rep.Clustering.MeanEfficiency
	}
	if rep.Validated {
		resp.Correlation = rep.Validation.Correlation
		resp.RankCorrelation = rep.Validation.RankCorrelation
	}
	return resp, nil
}

// SweepRequest prices a registered workload across a clock grid.
type SweepRequest struct {
	Workload   string    `json:"workload"`
	CoreClocks []float64 `json:"core_clocks"` // default sweep.DefaultCoreClocks()
	MemClocks  []float64 `json:"mem_clocks"`  // default {1.0}
}

// SweepPoint is one grid configuration's pricing.
type SweepPoint struct {
	CoreClockGHz float64 `json:"core_clock_ghz"`
	MemClockGHz  float64 `json:"mem_clock_ghz"`
	TotalNs      float64 `json:"total_ns"`
	// Speedup is relative to the grid's first configuration.
	Speedup float64 `json:"speedup"`
}

// SweepResponse is the priced grid, in grid order (core-major).
type SweepResponse struct {
	Workload string       `json:"workload"`
	Points   []SweepPoint `json:"points"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := s.decodeReq(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	cfgs, err := queryGrid(&req.CoreClocks, &req.MemClocks)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	e, err := s.reg.get(req.Workload)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	kb := cache.NewKey("serve.sweep", 2).Bytes(e.FP[:]).Int(int64(len(req.CoreClocks)))
	for _, c := range req.CoreClocks {
		kb.Float(c)
	}
	for _, c := range req.MemClocks {
		kb.Float(c)
	}
	s.runQuery(w, r, kb.Sum(), s.opt.Cache, func(ctx context.Context) (any, error) {
		return s.computeSweep(ctx, e, cfgs)
	})
}

// computeSweep prices the whole grid in one sweep.PriceGrid pass, its
// frames claimed on -workers goroutines; the response is the one cache
// entry.
func (s *Server) computeSweep(ctx context.Context, e *workloadEntry, cfgs []gpu.Config) (SweepResponse, error) {
	base, err := gpu.NewSimulator(cfgs[0], e.W)
	if err != nil {
		return SweepResponse{}, err
	}
	priced, err := sweep.PriceGrid(ctx, base, e.W, cfgs, s.opt.Workers)
	if err != nil {
		return SweepResponse{}, err
	}
	resp := SweepResponse{Workload: e.FP.String(), Points: make([]SweepPoint, len(cfgs))}
	for i, cfg := range cfgs {
		resp.Points[i] = SweepPoint{
			CoreClockGHz: cfg.CoreClockGHz,
			MemClockGHz:  cfg.MemClockGHz,
			TotalNs:      priced[i].TotalNs,
		}
		if priced[i].TotalNs > 0 {
			resp.Points[i].Speedup = priced[0].TotalNs / priced[i].TotalNs
		}
	}
	return resp, nil
}

// PriceRequest prices a registered workload on one configuration.
type PriceRequest struct {
	Workload     string  `json:"workload"`
	CoreClockGHz float64 `json:"core_clock_ghz"` // default 1.0
	MemClockGHz  float64 `json:"mem_clock_ghz"`  // default 1.0
}

// PriceResponse is one configuration's pricing.
type PriceResponse struct {
	Workload     string  `json:"workload"`
	CoreClockGHz float64 `json:"core_clock_ghz"`
	MemClockGHz  float64 `json:"mem_clock_ghz"`
	TotalNs      float64 `json:"total_ns"`
	FPS          float64 `json:"fps"`
}

func (s *Server) handlePrice(w http.ResponseWriter, r *http.Request) {
	var req PriceRequest
	if err := s.decodeReq(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	if req.CoreClockGHz == 0 {
		req.CoreClockGHz = 1.0
	}
	if req.MemClockGHz == 0 {
		req.MemClockGHz = 1.0
	}
	cfg := gpu.BaseConfig().WithCoreClock(req.CoreClockGHz).WithMemClock(req.MemClockGHz)
	if err := checkConfigs(cfg); err != nil {
		s.writeErr(w, err)
		return
	}
	e, err := s.reg.get(req.Workload)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	key := cache.NewKey("serve.price", 2).
		Bytes(e.FP[:]).
		Float(req.CoreClockGHz).
		Float(req.MemClockGHz).
		Sum()
	s.runQuery(w, r, key, s.opt.Cache, func(ctx context.Context) (any, error) {
		sim, err := gpu.NewSimulator(cfg, e.W)
		if err != nil {
			return nil, err
		}
		// One goroutine: up to -max-concurrent queries already run at
		// once, so one request does not fan out.
		priced, err := sweep.PriceParent(ctx, sim, e.W, cfg, 1)
		if err != nil {
			return nil, err
		}
		fps := 0.0
		if priced.TotalNs > 0 {
			fps = float64(len(priced.FrameNs)) / (priced.TotalNs * 1e-9)
		}
		return PriceResponse{
			Workload:     e.FP.String(),
			CoreClockGHz: req.CoreClockGHz,
			MemClockGHz:  req.MemClockGHz,
			TotalNs:      priced.TotalNs,
			FPS:          fps,
		}, nil
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.run.Metrics()
	ready, queued, _ := s.readiness()
	stats := map[string]any{
		"uptime_s":  time.Since(s.start).Seconds(),
		"workloads": s.reg.len(),
		"draining":  s.Draining(),
		"ready":     ready,
		"queued":    queued,
		"inflight":  s.inflightN.Load(),
		"requests":  m.Counter("serve.requests").Value(),
		"admitted":  m.Counter("serve.admitted").Value(),
		"shed":      m.Counter("serve.shed").Value(),
		"coalesced": m.Counter("serve.coalesced").Value(),
		"panics":    m.Counter("serve.panics").Value(),
	}
	if s.opt.Cache != nil {
		stats["cache"] = s.opt.Cache.Stats()
	}
	s.writeJSON(w, http.StatusOK, stats)
}

// runQuery is the execution path every compute query rides, and the
// one place a query meets the result cache: single-flight coalescing
// on key's hex, then, inside the flight, one cache.GetOrCompute under
// key in c whose compute runs fn and marshals its value. The entry is
// the JSON body, so a hit answers the stored bytes as they are. c is
// the server's cache, or nil for a query whose answer is never stored.
// Followers of a coalesced computation get the leader's bytes with
// X-Subsetd-Coalesced set. The computation runs under its own panic
// shield: a panic must end as the leader's error, which releases its
// followers and clears the flight key, instead of unwinding past the
// flight group.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, key cache.Key, c *cache.Cache, fn func(ctx context.Context) (any, error)) {
	ctx := r.Context()
	data, shared, err := s.flight.do(ctx, key.String(), func() (data []byte, err error) {
		err = parallel.Call(-1, func() (err error) {
			data, err = cache.GetOrCompute(ctx, c, key, func() ([]byte, error) {
				v, err := fn(ctx)
				if err != nil {
					return nil, err
				}
				return json.Marshal(v)
			})
			return err
		})
		return data, err
	})
	if shared {
		s.run.Metrics().Counter("serve.coalesced").Inc()
		w.Header().Set("X-Subsetd-Coalesced", "true")
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// queryGrid fills a grid query's default clocks (the standard core
// ladder, memory at 1.0) and builds its configs in grid order. An
// oversized grid or a config the simulator would refuse is the
// client's error.
func queryGrid(core, mem *[]float64) ([]gpu.Config, error) {
	if len(*core) == 0 {
		*core = sweep.DefaultCoreClocks()
	}
	if len(*mem) == 0 {
		*mem = []float64{1.0}
	}
	if n := len(*core) * len(*mem); n > MaxSweepConfigs {
		return nil, badRequest("sweep grid has %d configs, max %d", n, MaxSweepConfigs)
	}
	cfgs := sweep.Grid(gpu.BaseConfig(), *core, *mem)
	return cfgs, checkConfigs(cfgs...)
}

// checkConfigs answers a config the simulator would refuse, such as a
// clock that is not positive, as the client's error before anything is
// priced.
func checkConfigs(cfgs ...gpu.Config) error {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return badRequest("%v", err)
		}
	}
	return nil
}

// decodeReq parses a JSON query body strictly: unknown fields are
// rejected so typos fail loudly instead of silently defaulting.
func (s *Server) decodeReq(r *http.Request, dst any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxReqBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("decoding request body: %v", err)
	}
	return nil
}

// writeJSON answers v as JSON with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
