package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/export"
)

func parseDoc(t *testing.T, doc string, at time.Time) *export.Scrape {
	t.Helper()
	s, err := export.Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	s.Time = at
	return s
}

const docPrev = `
subsetd_up 1
subsetd_ready 1
subsetd_uptime_seconds 100
subsetd_workloads_registered 1
subsetd_inflight_requests 0
subsetd_admission_queue_depth 0
subsetd_admission_queue_capacity 8
subsetd_serve_requests_total 100
subsetd_serve_shed_total 10
subsetd_cache_hit_total 40
subsetd_cache_miss_total 40
go_memstats_heap_alloc_bytes 10485760
go_goroutines 12
subsetd_serve_http_requests_total{route="subset",status="200"} 90
subsetd_serve_http_requests_total{route="subset",status="404"} 10
subsetd_serve_http_latency_ms_bucket{route="subset",status="200",le="4"} 90
subsetd_serve_http_latency_ms_bucket{route="subset",status="200",le="+Inf"} 90
`

const docCur = `
subsetd_up 1
subsetd_ready 1
subsetd_uptime_seconds 110
subsetd_workloads_registered 2
subsetd_inflight_requests 1
subsetd_admission_queue_depth 3
subsetd_admission_queue_capacity 8
subsetd_serve_requests_total 150
subsetd_serve_shed_total 20
subsetd_cache_hit_total 70
subsetd_cache_miss_total 50
go_memstats_heap_alloc_bytes 20971520
go_goroutines 14
subsetd_serve_http_requests_total{route="subset",status="200"} 120
subsetd_serve_http_requests_total{route="subset",status="404"} 20
subsetd_serve_http_latency_ms_bucket{route="subset",status="200",le="4"} 100
subsetd_serve_http_latency_ms_bucket{route="subset",status="200",le="8"} 120
subsetd_serve_http_latency_ms_bucket{route="subset",status="200",le="+Inf"} 120
`

// TestRenderWindow: every number on the dashboard is a two-scrape
// delta over a 10-second window.
func TestRenderWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	prev := parseDoc(t, docPrev, t0)
	cur := parseDoc(t, docCur, t0.Add(10*time.Second))

	out := render(prev, cur)

	for _, want := range []string{
		"req/s 5.0",     // (150-100)/10
		"shed/s 1.0",    // (20-10)/10
		"cache hit 75%", // (70-40)/((70-40)+(50-40))
		"heap 20.0 MiB", // cur heap, not a delta
		"goroutines 14",
		"workloads 2",
		"queue 3/8",
		"[ready]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}

	// Per-route row: 4.0 req/s ((120+20-90-10)/10), 1.0 err/s
	// ((20-10)/10), and a windowed p50 — the 30 new 200s land 10 in
	// (0,4] and 20 in (4,8], so the median sits in (4, 8].
	var routeLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "subset ") {
			routeLine = line
		}
	}
	if routeLine == "" {
		t.Fatalf("no subset route row:\n%s", out)
	}
	fields := strings.Fields(routeLine)
	if len(fields) != 5 {
		t.Fatalf("route row %q has %d fields, want 5", routeLine, len(fields))
	}
	if fields[1] != "4.0" || fields[2] != "1.0" {
		t.Errorf("route rates = %s/%s, want 4.0/1.0", fields[1], fields[2])
	}
	var p50 float64
	if _, err := fmt.Sscanf(fields[3], "%f", &p50); err != nil || p50 <= 4 || p50 > 8 {
		t.Errorf("windowed p50 = %q, want within (4, 8]", fields[3])
	}
}

// TestRenderFirstFrame: with no previous scrape the rates are dashes,
// not zeros — an honest "no window yet".
func TestRenderFirstFrame(t *testing.T) {
	cur := parseDoc(t, docCur, time.Unix(1000, 0))
	out := render(nil, cur)
	if !strings.Contains(out, "req/s -") || !strings.Contains(out, "shed/s -") {
		t.Errorf("first frame shows rates without a window:\n%s", out)
	}
	if !strings.Contains(out, "ROUTE") {
		t.Errorf("first frame missing route table:\n%s", out)
	}
}

func TestRenderDrainingState(t *testing.T) {
	cur := parseDoc(t, docCur+"\nsubsetd_draining 1\n", time.Unix(1000, 0))
	if out := render(nil, cur); !strings.Contains(out, "[DRAINING]") {
		t.Errorf("draining server not flagged:\n%s", out)
	}
	notReady := parseDoc(t, strings.Replace(docCur, "subsetd_ready 1", "subsetd_ready 0", 1), time.Unix(1000, 0))
	if out := render(nil, notReady); !strings.Contains(out, "[NOT READY]") {
		t.Errorf("not-ready server not flagged:\n%s", out)
	}
}

// TestOnceRequireAndOut drives the CI-gate path end to end against a
// stub server: -once -require passes for present families, fails for
// absent ones, and -out saves the raw document byte-for-byte.
func TestOnceRequireAndOut(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, docCur)
	}))
	defer srv.Close()

	outFile := filepath.Join(t.TempDir(), "metrics.prom")
	cfg := config{
		addr: srv.URL, once: true, timeout: 5 * time.Second,
		require: "subsetd_up,subsetd_serve_http_requests_total,go_goroutines",
		out:     outFile,
	}
	var sb strings.Builder
	if err := run(cfg, &sb); err != nil {
		t.Fatalf("run -once: %v", err)
	}
	saved, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(saved) != docCur {
		t.Error("-out did not save the raw scrape verbatim")
	}
	if !strings.Contains(sb.String(), "subsetd up") {
		t.Errorf("-once printed no frame:\n%s", sb.String())
	}

	cfg.require = "subsetd_up,absent_family_total"
	cfg.out = ""
	err = run(cfg, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "absent_family_total") {
		t.Errorf("missing family not reported: %v", err)
	}
}

// TestScrapeRejectsErrorStatus: a non-200 /metrics is a failed scrape,
// not an empty dashboard.
func TestScrapeRejectsErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	hc := &http.Client{Timeout: 5 * time.Second}
	if _, _, err := scrape(hc, srv.URL); err == nil {
		t.Error("scrape accepted a 503 /metrics")
	}
}
