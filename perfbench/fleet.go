package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/trace"
)

const fleetWorkers = 2

// fleet runs one coord.Sweep per unit over two in-process subsetd
// workers that have no result cache, so every sweep prices cold. It
// sweeps the 16-config grid over a 48-frame bioshock1 trace. An item is
// one draw priced on one config.
type fleet struct {
	w       *trace.Workload
	workers []*daemon
	co      *coord.Coordinator
	rt      *spanTransport
	draws   int64
	ref     []byte // shard.RunSequential's encoded manifest

	mu    sync.Mutex
	stats []sweepStats // traced sweeps
}

type sweepStats struct {
	wall time.Duration
	st   coord.Stats
}

func setupFleet(ctx context.Context, seed uint64) (instance, time.Duration, error) {
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
	f := &fleet{w: w, draws: int64(w.NumDraws()), rt: &spanTransport{base: http.DefaultTransport}}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		d, err := startDaemon(ctx, "")
		if err != nil {
			f.close()
			return nil, 0, err
		}
		f.workers = append(f.workers, d)
		urls = append(urls, d.url)
	}
	f.co, err = coord.New(coord.Options{
		Workers: urls,
		HTTP:    &http.Client{Transport: f.rt},
		Run:     obs.NewRun("subsetcoord"),
	})
	if err == nil {
		_, err = f.co.Register(ctx, stream.Bytes())
	}
	if err != nil {
		f.close()
		return nil, 0, err
	}
	return f, gen, nil
}

func (f *fleet) reference(ctx context.Context, rec *recorder) error {
	rm, err := shard.RunSequential(ctx, nil, f.w, sweep.Grid(gpu.BaseConfig(), gridCore, gridMem))
	if err == nil {
		f.ref, err = rm.Encode()
	}
	rec.op(err)
	return err
}

func (f *fleet) measure(ctx context.Context, deadline time.Time, rec *recorder, tr *tracer) error {
	items := f.draws * int64(len(gridCore)*len(gridMem))
	return loop(ctx, deadline, rec, tr, "fleet", func(ctx context.Context, tr *tracer, id string) (int64, func() error, error) {
		root := tr.start(id, 0, "coord.sweep")
		f.rt.attach(tr, id, root)
		t0 := time.Now()
		rm, st, err := f.co.Sweep(ctx, gridCore, gridMem)
		wall := time.Since(t0)
		f.rt.attach(nil, "", 0)
		tr.end(root)
		if err != nil {
			return items, nil, err
		}
		if tr != nil {
			f.mu.Lock()
			f.stats = append(f.stats, sweepStats{wall: wall, st: st})
			f.mu.Unlock()
		}
		return items, func() error {
			data, err := rm.Encode()
			if err != nil {
				return err
			}
			if !bytes.Equal(data, f.ref) {
				return fmt.Errorf("fleet merge vs shard.RunSequential: %w", errMismatch)
			}
			if st.Completed != st.Shards {
				return fmt.Errorf("fleet: %d of %d shards completed", st.Completed, st.Shards)
			}
			return nil
		}, nil
	})
}

func (f *fleet) layers(lm map[string]float64, _ *tracer, _ *recorder) {
	var merge, busyMax, busyMin, overhead, nsPerItem []float64
	var attempts, shards, retries, steals float64
	items := float64(f.draws) * float64(len(gridCore)*len(gridMem))
	for _, s := range f.stats {
		var hi, lo, sum int64 = 0, -1, 0
		for _, wc := range s.st.PerWorker {
			hi = max(hi, wc.BusyNs)
			if lo < 0 || wc.BusyNs < lo {
				lo = wc.BusyNs
			}
			sum += wc.BusyNs
		}
		merge = append(merge, float64(s.st.MergeNs)/1e6)
		busyMax = append(busyMax, float64(hi)/1e6)
		busyMin = append(busyMin, float64(lo)/1e6)
		overhead = append(overhead, ms(s.wall)-float64(hi+s.st.MergeNs)/1e6)
		nsPerItem = append(nsPerItem, float64(sum)/items)
		attempts += float64(s.st.Attempts)
		shards += float64(s.st.Shards)
		retries += float64(s.st.Retries)
		steals += float64(s.st.Steals)
	}
	n := float64(len(f.stats))
	lm["coord.merge_ms"] = median(merge)
	lm["coord.busy_max_ms"] = median(busyMax)
	lm["coord.busy_min_ms"] = median(busyMin)
	lm["coord.overhead_ms"] = median(overhead)
	lm["coord.attempts_per_shard"] = ratio(attempts, shards)
	lm["coord.retries"] = ratio(retries, n)
	lm["coord.steals"] = ratio(steals, n)
	lm["sweep.ns_per_draw_config"] = median(nsPerItem)
	lm["shard.manifest_kb"] = f.rt.manifestKB()
}

func (f *fleet) close() error {
	var err error
	for _, d := range f.workers {
		err = errors.Join(err, d.stop())
	}
	return err
}

// spanTransport is the coordinator's HTTP transport. While a traced
// sweep is attached it records a client span, carrying the request's
// X-Subsetd-Trace-Id, around each call, and the size of each shard
// manifest that comes back.
type spanTransport struct {
	base http.RoundTripper

	mu        sync.Mutex
	tr        *tracer
	trace     string
	parent    int
	manifests []float64 // KB
}

func (t *spanTransport) attach(tr *tracer, trace string, parent int) {
	t.mu.Lock()
	t.tr, t.trace, t.parent = tr, trace, parent
	t.mu.Unlock()
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	tr, trace, parent := t.tr, t.trace, t.parent
	t.mu.Unlock()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	id := tr.start(trace, parent, "http"+req.URL.Path)
	tr.tag(id, req.Header.Get(serve.TraceHeader))
	defer tr.end(id)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var sr serve.ShardSweepResponse
	if req.URL.Path == "/v1/shard/sweep" && resp.StatusCode == http.StatusOK && json.Unmarshal(body, &sr) == nil {
		t.mu.Lock()
		t.manifests = append(t.manifests, float64(len(sr.Manifest))/1024)
		t.mu.Unlock()
	}
	return resp, nil
}

func (t *spanTransport) manifestKB() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.manifests)
}
