package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/obs/export"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The serve workload's closed-loop client script.
const (
	serveClients = 2    // concurrent client connections
	serveFrames  = 48   // subsetload's default trace length
	missShare    = 0.20 // share of queries that price at a fresh clock
	// scrapeEvery is how often each client scrapes /metrics:
	// subsetstat's default -interval.
	scrapeEvery = 2 * time.Second
)

// hitClocks are the core clocks of the warm price queries.
var hitClocks = []float64{0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}

// query is one warm request and the answer every later hit must
// repeat byte for byte.
type query struct {
	path string
	body []byte
	ref  []byte
}

// serveBench runs closed-loop clients on loopback against an in-process
// subsetd with an observability run and a result cache in a fresh
// directory. Each client mostly repeats warm price and subset queries
// (cache hits), prices a fixed share of fresh clocks (cache misses:
// pricing plus cache writes), and scrapes /metrics as often as
// subsetstat does. An item is one request.
type serveBench struct {
	seed    uint64
	dir     string
	d       *daemon
	fp      string
	hits    []query
	clients []*http.Client

	wall     time.Duration // the timed phase
	scrapeKB []float64
	before   serverView
	after    serverView
	mu       sync.Mutex
}

func setupServe(ctx context.Context, seed uint64) (instance, time.Duration, error) {
	t0 := time.Now()
	prof := synth.Bioshock1Profile()
	prof.Frames = serveFrames
	w, err := synth.Generate(prof, seed)
	if err != nil {
		return nil, 0, err
	}
	gen := time.Since(t0)
	var stream bytes.Buffer
	if err := trace.EncodeStream(&stream, w); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(outDir, "serve-cache-")
	if err != nil {
		return nil, 0, err
	}
	b := &serveBench{seed: seed, dir: dir}
	if b.d, err = startDaemon(ctx, dir); err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	for i := 0; i < serveClients; i++ {
		b.clients = append(b.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}})
	}
	if err := b.warm(ctx, stream.Bytes()); err != nil {
		b.close()
		return nil, 0, err
	}
	return b, gen, nil
}

// warm uploads the trace and asks every warm query once; those first
// answers are the references later hits are checked against.
func (b *serveBench) warm(ctx context.Context, stream []byte) error {
	cl := b.clients[0]
	var err error
	if b.fp, err = upload(ctx, cl, b.d.url, stream); err != nil {
		return err
	}
	for _, c := range hitClocks {
		b.hits = append(b.hits, query{path: "/v1/price", body: b.priceBody(c)})
	}
	for _, sq := range []serve.SubsetRequest{
		{Workload: b.fp},
		{Workload: b.fp, ClusteringEval: true, Validate: true},
	} {
		body, err := json.Marshal(sq)
		if err != nil {
			return err
		}
		b.hits = append(b.hits, query{path: "/v1/subset", body: body})
	}
	for i := range b.hits {
		q := &b.hits[i]
		status, data, err := request(ctx, cl, http.MethodPost, b.d.url+q.path, q.body, "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warming %s: status %d: %s", q.path, status, data)
		}
		q.ref = data
	}
	return nil
}

func (b *serveBench) priceBody(core float64) []byte {
	body, _ := json.Marshal(serve.PriceRequest{Workload: b.fp, CoreClockGHz: core, MemClockGHz: 1.0})
	return body
}

// The references are the warm answers set-up recorded.
func (b *serveBench) reference(context.Context, *recorder) error { return nil }

func (b *serveBench) measure(ctx context.Context, deadline time.Time, rec *recorder, tr *tracer) error {
	if tr != nil {
		b.before = b.view(ctx, rec)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range b.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.client(ctx, c, deadline, rec, tr)
		}(c)
	}
	wg.Wait()
	b.wall = time.Since(t0)
	if tr != nil {
		b.after = b.view(ctx, rec)
	}
	return ctx.Err()
}

// client runs one closed-loop client: its next request goes out when
// the previous answer is in. The sequence of hits and misses is drawn
// from the seed; a scrape takes the place of the next request once
// scrapeEvery has passed since the client's last one.
func (b *serveBench) client(ctx context.Context, c int, deadline time.Time, rec *recorder, tr *tracer) {
	cl := b.clients[c]
	rng := rand.New(rand.NewSource(int64(b.seed)*1000 + int64(c)))
	lastScrape := time.Now()
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		if ctx.Err() != nil {
			return
		}
		class, method, path, body := "hit", http.MethodPost, "", []byte(nil)
		var hit *query
		missClock := 0.0
		switch {
		case time.Since(lastScrape) >= scrapeEvery:
			lastScrape = time.Now()
			class, method, path = "scrape", http.MethodGet, "/metrics"
		case rng.Float64() < missShare:
			// A clock no earlier request used: 0.7 GHz plus a step
			// unique to this client and request.
			missClock = 0.7 + 1e-6*float64(serveClients*k+c+1)
			class, path, body = "miss", "/v1/price", b.priceBody(missClock)
		default:
			hit = &b.hits[rng.Intn(len(b.hits))]
			path, body = hit.path, hit.body
		}
		id := ""
		var sp int
		if tr != nil && k%2 == 1 {
			id = fmt.Sprintf("pb-serve-%d-c%d-%d", b.seed, c, k)
			sp = tr.start(id, 0, "http."+class)
			tr.tag(sp, id)
		}
		t0 := time.Now()
		status, data, err := request(ctx, cl, method, b.d.url+path, body, id)
		dur := time.Since(t0)
		tr.end(sp)
		if err == nil {
			err = b.check(class, status, data, hit, missClock)
		}
		rec.add(sample{dur: dur, items: 1, class: class, traced: id != ""}, err)
	}
}

// check verifies one answer: a hit repeats its first answer byte for
// byte, a miss is a well-formed pricing of the requested clock, a
// scrape parses as exposition text.
func (b *serveBench) check(class string, status int, data []byte, hit *query, clock float64) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", class, status, bytes.TrimSpace(data))
	}
	switch class {
	case "hit":
		if !bytes.Equal(data, hit.ref) {
			return fmt.Errorf("hit %s: %w", hit.path, errMismatch)
		}
	case "miss":
		var pr serve.PriceResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			return fmt.Errorf("miss: %w", err)
		}
		ok := pr.Workload == b.fp && pr.CoreClockGHz == clock && pr.MemClockGHz == 1.0 &&
			pr.TotalNs > 0 && pr.FPS > 0 && !math.IsInf(pr.TotalNs, 0)
		if !ok {
			return fmt.Errorf("miss: malformed pricing %+v", pr)
		}
	case "scrape":
		if _, err := export.Parse(bytes.NewReader(data)); err != nil {
			return fmt.Errorf("scrape: %w", err)
		}
		b.mu.Lock()
		b.scrapeKB = append(b.scrapeKB, float64(len(data))/1024)
		b.mu.Unlock()
	}
	return nil
}

// serverView is the server's cumulative counters at one instant, read
// from outside: a /metrics scrape, /v1/stats and the cache's Stats.
type serverView struct {
	scrape *export.Scrape
	stats  struct {
		Requests  float64 `json:"requests"`
		Shed      float64 `json:"shed"`
		Coalesced float64 `json:"coalesced"`
	}
	cache cache.Stats
}

func (b *serveBench) view(ctx context.Context, rec *recorder) serverView {
	var v serverView
	cl := b.clients[0]
	status, data, err := request(ctx, cl, http.MethodGet, b.d.url+"/metrics", nil, "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/metrics: status %d", status)
	}
	if err == nil {
		v.scrape, err = export.Parse(bytes.NewReader(data))
	}
	rec.op(err)
	status, data, err = request(ctx, cl, http.MethodGet, b.d.url+"/v1/stats", nil, "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/v1/stats: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(data, &v.stats)
	}
	rec.op(err)
	v.cache = b.d.cache.Stats()
	return v
}

// delta is a cumulative family's increase over the traced window.
func (b *serveBench) delta(name string, match map[string]string) float64 {
	return b.after.scrape.Total(name, match) - b.before.scrape.Total(name, match)
}

// histMean is a histogram family's mean observation over the window.
func (b *serveBench) histMean(name string, match map[string]string) float64 {
	return ratio(b.delta(name+"_sum", match), b.delta(name+"_count", match))
}

func (b *serveBench) layers(lm map[string]float64, _ *tracer, rec *recorder) {
	of := func(class string) func(sample) bool {
		return func(s sample) bool { return s.class == class }
	}
	all := rec.durations(anySample)
	lm["serve.hit_p50_ms"] = median(rec.durations(of("hit")))
	lm["serve.miss_p50_ms"] = median(rec.durations(of("miss")))
	lm["serve.p90_ms"] = quantile(all, 0.90)
	lm["serve.p99_ms"] = quantile(all, 0.99)
	lm["serve.requests"] = float64(len(all))
	lm["serve.items_per_s"] = ratio(float64(len(all)), b.wall.Seconds())
	lm["obs.scrape_ms"] = median(rec.durations(of("scrape")))
	b.mu.Lock()
	lm["obs.scrape_kb"] = median(b.scrapeKB)
	b.mu.Unlock()

	var handlerSum, handlerCount float64
	for _, route := range []string{"price", "subset"} {
		match := map[string]string{"route": route}
		handlerSum += b.delta("subsetd_serve_http_latency_ms_sum", match)
		handlerCount += b.delta("subsetd_serve_http_latency_ms_count", match)
	}
	lm["serve.handler_ms"] = ratio(handlerSum, handlerCount)
	lm["serve.batch_queue_ms"] = b.histMean("subsetd_serve_batch_queue_ms", nil)
	lm["serve.batch_size"] = b.histMean("subsetd_serve_batch_size", nil)
	lm["serve.queue_wait_ms"] = ratio(b.delta("subsetd_serve_queue_wait_ms_sum", nil),
		b.delta("subsetd_serve_admitted_total", nil))
	requests := b.after.stats.Requests - b.before.stats.Requests
	lm["serve.coalesced_ratio"] = ratio(b.after.stats.Coalesced-b.before.stats.Coalesced, requests)
	lm["serve.shed_ratio"] = ratio(b.after.stats.Shed-b.before.stats.Shed, requests)

	hits := float64(b.after.cache.Hits - b.before.cache.Hits)
	misses := float64(b.after.cache.Misses - b.before.cache.Misses)
	lm["cache.hit_ratio"] = ratio(hits, hits+misses)
	lm["cache.misses"] = misses
	lm["cache.evictions"] = float64(b.after.cache.Evictions - b.before.cache.Evictions)
}

func (b *serveBench) close() error {
	err := b.d.stop()
	for _, cl := range b.clients {
		cl.CloseIdleConnections()
	}
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}
