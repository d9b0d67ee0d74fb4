package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/cache"
	"repro/internal/shard"
	"repro/internal/tracetest"
)

// TestShardSweepDispatch drives the full dispatch path: two shard
// requests against one server cover the grid, their manifests merge,
// and the merged totals agree with the single-process /v1/sweep answer
// for the same grid.
func TestShardSweepDispatch(t *testing.T) {
	c, err := cache.New(cache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Cache: c})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, tracetest.Tiny()))

	grid := `"core_clocks": [0.5, 1.0, 1.5], "mem_clocks": [0.8, 1.2]`
	var manifests []*shard.Manifest
	for i := 1; i <= 2; i++ {
		body := fmt.Sprintf(`{"workload": %q, %s, "shard": "%d/2"}`, fp, grid, i)
		rec := do(h, "POST", "/v1/shard/sweep", []byte(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("shard %d/2: status %d: %s", i, rec.Code, rec.Body)
		}
		var resp ShardSweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Shard != fmt.Sprintf("%d/2", i) || resp.GridConfigs != 6 {
			t.Fatalf("shard %d/2 response header: %+v", i, resp)
		}
		if resp.Owned != 3 || resp.Owned != resp.Computed+resp.CacheHits {
			t.Fatalf("shard %d/2 accounting: %+v", i, resp)
		}
		m, err := shard.DecodeManifest(resp.Manifest)
		if err != nil {
			t.Fatalf("shard %d/2 manifest: %v", i, err)
		}
		if m.Shard.String() != resp.Shard || m.Grid.String() != resp.GridDigest {
			t.Fatalf("shard %d/2 manifest disagrees with response envelope", i)
		}
		manifests = append(manifests, m)
	}
	rm, err := shard.Merge(manifests)
	if err != nil {
		t.Fatal(err)
	}

	// The merged fold must agree with the sweep endpoint point by
	// point — same grid, same workload, same floats.
	rec := do(h, "POST", "/v1/sweep", []byte(fmt.Sprintf(`{"workload": %q, %s}`, fp, grid)))
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", rec.Code, rec.Body)
	}
	var sweepResp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sweepResp); err != nil {
		t.Fatal(err)
	}
	if len(sweepResp.Points) != len(rm.Entries) {
		t.Fatalf("sweep has %d points, merge has %d entries", len(sweepResp.Points), len(rm.Entries))
	}
	for i, p := range sweepResp.Points {
		e := rm.Entries[i]
		if p.CoreClockGHz != e.CoreClockGHz || p.MemClockGHz != e.MemClockGHz || p.TotalNs != e.TotalNs {
			t.Fatalf("point %d: sweep %+v vs merged %+v", i, p, e)
		}
	}
}

func TestShardSweepRejectsBadRequests(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, tracetest.Tiny()))

	for name, body := range map[string]string{
		"bad spec":       fmt.Sprintf(`{"workload": %q, "shard": "0/2"}`, fp),
		"missing spec":   fmt.Sprintf(`{"workload": %q}`, fp),
		"unparseable":    fmt.Sprintf(`{"workload": %q, "shard": "a/b"}`, fp),
		"oversized grid": fmt.Sprintf(`{"workload": %q, "shard": "1/2", "core_clocks": %s, "mem_clocks": %s}`, fp, bigList(64), bigList(64)),
		"negative clock": fmt.Sprintf(`{"workload": %q, "shard": "1/2", "core_clocks": [1, -2]}`, fp),
	} {
		rec := do(h, "POST", "/v1/shard/sweep", []byte(body))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}

	rec := do(h, "POST", "/v1/shard/sweep", []byte(`{"workload": "deadbeef", "shard": "1/2"}`))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown workload: status %d, want 404: %s", rec.Code, rec.Body)
	}
}

// TestShardSweepWithoutCacheStillCorrect: a server with no result
// cache can still serve shard dispatches — the worker computes
// directly; only cross-request dedup is lost.
func TestShardSweepWithoutCacheStillCorrect(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, tracetest.Tiny()))
	body := fmt.Sprintf(`{"workload": %q, "core_clocks": [0.5, 1.0], "shard": "1/1"}`, fp)
	rec := do(h, "POST", "/v1/shard/sweep", []byte(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp ShardSweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Owned != 2 || resp.Computed != 2 || resp.CacheHits != 0 {
		t.Fatalf("cacheless accounting: %+v", resp)
	}
	if _, err := shard.DecodeManifest(resp.Manifest); err != nil {
		t.Fatal(err)
	}
}

// bigList renders a JSON array of n distinct clocks, for oversizing
// the grid.
func bigList(n int) string {
	out := "["
	for i := 0; i < n; i++ {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%.2f", 0.5+0.01*float64(i))
	}
	return out + "]"
}
