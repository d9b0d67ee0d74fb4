package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/shader"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

// newTestServer builds a server with tight limits suitable for tests
// and registers its drain as cleanup.
func newTestServer(t *testing.T, opt Options) *Server {
	t.Helper()
	if opt.Run == nil {
		opt.Run = obs.NewRun("serve-test")
	}
	s := New(opt)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

func streamBody(t *testing.T, w *trace.Workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func do(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// upload registers the workload and returns its fingerprint.
func upload(t *testing.T, h http.Handler, body []byte) string {
	t.Helper()
	rec := do(h, "POST", "/v1/workloads", body)
	if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
	}
	var resp UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("upload response: %v", err)
	}
	return resp.Fingerprint
}

// gobFixture is tracetest.Tiny() as the legacy gob .trace writer
// encoded it — the documented gob upload format.
func gobFixture(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "tiny.gob.trace"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// v1Fixture is tracetest.Tiny() as the legacy v1 stream writer encoded
// it.
func v1Fixture(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "tiny.v1.stream"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// wireTrace is the whole-workload form a JSON or gob .trace upload
// carries, field for field, so tests can write either form of any
// workload, broken ones included.
type wireTrace struct {
	Name          string
	Frames        []trace.Frame
	Shaders       []shader.Program
	Textures      []trace.Texture
	RenderTargets []trace.RenderTarget
}

// tinyWire is tracetest.Tiny() in the wire form, for tests to break.
func tinyWire() wireTrace {
	w := tracetest.Tiny()
	h := trace.HeaderOf(w)
	return wireTrace{Name: h.Name, Frames: w.Frames, Shaders: h.Shaders,
		Textures: h.Textures, RenderTargets: h.RenderTargets}
}

// dupShaderWire is Tiny with two programs sharing an id: a header that
// describes no usable workload.
func dupShaderWire() wireTrace {
	v := tinyWire()
	v.Shaders = append([]shader.Program{}, v.Shaders...)
	v.Shaders[1].ID = v.Shaders[0].ID
	return v
}

// invalidDrawWire is Tiny with one draw out of range: a damaged frame.
func invalidDrawWire() wireTrace {
	v := tinyWire()
	v.Frames = append([]trace.Frame{}, v.Frames...)
	v.Frames[1].Draws = append([]trace.DrawCall{}, v.Frames[1].Draws...)
	v.Frames[1].Draws[0].CoverageFrac = 2
	return v
}

// uploadForms encodes v as a container, as JSON and as a gob .trace.
func uploadForms(tb testing.TB, v wireTrace) map[string][]byte {
	tb.Helper()
	var container, gobBuf bytes.Buffer
	enc, err := trace.NewStreamEncoder(&container, trace.Header{Name: v.Name, Shaders: v.Shaders,
		Textures: v.Textures, RenderTargets: v.RenderTargets})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range v.Frames {
		if err := enc.WriteFrame(&v.Frames[i]); err != nil {
			tb.Fatal(err)
		}
	}
	js, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	if err := gob.NewEncoder(&gobBuf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{"container": container.Bytes(), "json": js, "gob": gobBuf.Bytes()}
}

func TestUploadFormats(t *testing.T) {
	wl := tracetest.Tiny()
	var jsonBuf bytes.Buffer
	if err := wl.EncodeJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, format string
		body         []byte
	}{
		{"stream", "stream", streamBody(t, wl)},
		{"gob", "gob", gobFixture(t)},
		{"json", "json", jsonBuf.Bytes()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Options{})
			h := s.Handler()
			rec := do(h, "POST", "/v1/workloads", tc.body)
			if rec.Code != http.StatusCreated {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			var resp UploadResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Format != tc.format {
				t.Errorf("format = %q, want %q", resp.Format, tc.format)
			}
			if resp.Frames != 3 || resp.Degraded {
				t.Errorf("frames=%d degraded=%v, want 3 clean frames", resp.Frames, resp.Degraded)
			}
			// The fingerprint must match a local computation: the
			// registry key is the content address.
			if want := wl.Fingerprint().String(); resp.Fingerprint != want {
				t.Errorf("fingerprint = %s, want %s", resp.Fingerprint, want)
			}
		})
	}
}

func TestUploadIdempotent(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	body := streamBody(t, tracetest.Tiny())
	first := do(h, "POST", "/v1/workloads", body)
	if first.Code != http.StatusCreated {
		t.Fatalf("first upload: %d", first.Code)
	}
	second := do(h, "POST", "/v1/workloads", body)
	if second.Code != http.StatusOK {
		t.Fatalf("second upload: %d, want 200 (idempotent)", second.Code)
	}
	var resp UploadResponse
	if err := json.Unmarshal(second.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.AlreadyRegistered {
		t.Error("second upload not flagged already_registered")
	}
	if s.reg.len() != 1 {
		t.Errorf("registry holds %d entries, want 1", s.reg.len())
	}
}

// TestUploadDegradedStream: a stream with a corrupted record still
// registers in lenient mode, with the damage accounted; strict mode
// rejects it with its taxonomy class.
func TestUploadDegradedStream(t *testing.T) {
	body := streamBody(t, tracetest.Tiny())
	// Flip a byte near the end — inside the last frame record, safely
	// past the header record (which must stay parseable even in lenient
	// mode). The lenient reader resyncs past the damaged record.
	corrupt := append([]byte(nil), body...)
	corrupt[len(corrupt)-20] ^= 0xFF

	lenient := newTestServer(t, Options{})
	rec := do(lenient.Handler(), "POST", "/v1/workloads", corrupt)
	if rec.Code != http.StatusCreated {
		t.Fatalf("lenient upload: %d: %s", rec.Code, rec.Body)
	}
	var resp UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || !resp.Diagnostics.Any() {
		t.Errorf("degraded=%v diag=%+v, want degradation accounted", resp.Degraded, resp.Diagnostics)
	}

	strict := newTestServer(t, Options{Strict: true})
	rec = do(strict.Handler(), "POST", "/v1/workloads", corrupt)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("strict upload: %d, want 400", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Class != "corrupt_record" && eb.Class != "truncated" {
		t.Errorf("strict class = %q, want corrupt_record or truncated", eb.Class)
	}
}

// TestUploadRejectionsTypedInEveryForm: a lenient and a strict server
// answer JSON and gob .trace uploads with the status and class the same
// content gets as a container, and never with 5xx. A clean v1 stream
// registers like a clean container.
func TestUploadRejectionsTypedInEveryForm(t *testing.T) {
	clean := uploadForms(t, tinyWire())
	truncated := map[string][]byte{}
	for form, body := range clean {
		truncated[form] = body[:20] // inside the header, in every form
	}
	empty := uploadForms(t, wireTrace{})
	empty["json"] = []byte("{}")
	noName := tinyWire()
	noName.Name = ""
	cases := []struct {
		name                    string
		bodies                  map[string][]byte
		lenientWant, strictWant string // class; "" registers the workload
	}{
		{"truncated", truncated, "truncated", "truncated"},
		{"empty document", empty, "corrupt_record", "corrupt_record"},
		{"empty name", uploadForms(t, noName), "corrupt_record", "corrupt_record"},
		{"duplicate shader id", uploadForms(t, dupShaderWire()), "corrupt_record", "corrupt_record"},
		{"invalid draw", uploadForms(t, invalidDrawWire()), "", "invalid_frame"},
		{"clean v1 stream", map[string][]byte{"container": clean["container"], "v1": v1Fixture(t)}, "", ""},
	}
	for _, strict := range []bool{false, true} {
		s := newTestServer(t, Options{Strict: strict})
		for _, tc := range cases {
			want := tc.lenientWant
			if strict {
				want = tc.strictWant
			}
			// Every form of a case carries the same content, so after
			// the first registers the rest answer 200.
			for _, form := range []string{"container", "json", "gob", "v1"} {
				body, ok := tc.bodies[form]
				if !ok {
					continue
				}
				rec := do(s.Handler(), "POST", "/v1/workloads", body)
				var eb errorBody
				if rec.Code >= 400 {
					if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
						t.Fatal(err)
					}
				}
				accepted := rec.Code == http.StatusCreated || rec.Code == http.StatusOK
				if rec.Code >= 500 || eb.Class != want || accepted != (want == "") {
					t.Errorf("strict=%v %s as %s: %d %q, want class %q: %s",
						strict, tc.name, form, rec.Code, eb.Class, want, rec.Body)
				}
			}
		}
	}
}

// TestUploadCutByBodyCapIsTooLarge: a container cut by -max-body part
// way through a record is 413 too_large to a strict server as to a
// lenient one; the cap, not the record it cut, is the failure.
func TestUploadCutByBodyCapIsTooLarge(t *testing.T) {
	body := streamBody(t, tracetest.Tiny())
	for _, strict := range []bool{false, true} {
		s := newTestServer(t, Options{Strict: strict, MaxBodyBytes: int64(len(body)) - 100})
		rec := do(s.Handler(), "POST", "/v1/workloads", body)
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("strict=%v: %v: %s", strict, err, rec.Body)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || eb.Class != "too_large" {
			t.Errorf("strict=%v: %d %q, want 413 too_large: %s", strict, rec.Code, eb.Class, rec.Body)
		}
	}
}

// TestSubsetColdWarmIdentical is the service-level caching contract: a
// warm query's response bytes are identical to the cold query's.
func TestSubsetColdWarmIdentical(t *testing.T) {
	c, err := cache.New(cache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Cache: c})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, tracetest.Tiny()))

	reqBody := []byte(fmt.Sprintf(`{"workload":%q,"validate":true}`, fp))
	cold := do(h, "POST", "/v1/subset", reqBody)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold subset: %d: %s", cold.Code, cold.Body)
	}
	warm := do(h, "POST", "/v1/subset", reqBody)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm subset: %d: %s", warm.Code, warm.Body)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Errorf("warm response differs from cold:\ncold: %s\nwarm: %s", cold.Body, warm.Body)
	}
	var resp SubsetResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.SubsetFrames) == 0 || resp.SizeRatio <= 0 {
		t.Errorf("degenerate subset response: %+v", resp)
	}
}

// TestOneCacheEntryPerQuery: the response is subsetd's one cache
// layer. A cold price, subset (clustering evaluation and validation)
// and 3-config sweep query each store exactly one entry on disk, and
// repeating each is one cache hit with a byte-identical body.
func TestOneCacheEntryPerQuery(t *testing.T) {
	dir := t.TempDir()
	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Cache: c})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, tracetest.Tiny()))
	entries := func() int {
		paths, err := filepath.Glob(filepath.Join(dir, "*", "*.s3dc"))
		if err != nil {
			t.Fatal(err)
		}
		return len(paths)
	}
	for _, q := range []struct{ path, body string }{
		{"/v1/price", fmt.Sprintf(`{"workload":%q,"core_clock_ghz":1.3}`, fp)},
		{"/v1/subset", fmt.Sprintf(`{"workload":%q,"clustering_eval":true,"validate":true}`, fp)},
		{"/v1/sweep", fmt.Sprintf(`{"workload":%q,"core_clocks":[0.5,1.0,2.0]}`, fp)},
	} {
		before := entries()
		cold := do(h, "POST", q.path, []byte(q.body))
		if cold.Code != http.StatusOK {
			t.Fatalf("cold %s: %d: %s", q.path, cold.Code, cold.Body)
		}
		if n := entries() - before; n != 1 {
			t.Errorf("cold %s stored %d entries, want 1", q.path, n)
		}
		hits := c.Stats().Hits
		warm := do(h, "POST", q.path, []byte(q.body))
		if warm.Code != http.StatusOK {
			t.Fatalf("warm %s: %d: %s", q.path, warm.Code, warm.Body)
		}
		if n := c.Stats().Hits - hits; n != 1 {
			t.Errorf("warm %s: %d cache hits, want 1", q.path, n)
		}
		if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
			t.Errorf("warm %s differs from cold:\ncold: %s\nwarm: %s", q.path, cold.Body, warm.Body)
		}
	}
}

// TestResponseEntryIgnoresProcessHistory: a response's cache entry is
// the answered JSON body, so its bytes depend on the answer alone. Gob
// numbers struct types per process in the order it first meets them,
// so the test first gob-encodes an unrelated struct, which would have
// shifted a gob-encoded response struct, then answers a /v1/price
// query through a disk cache and holds the one entry to the body and
// to a frozen digest.
func TestResponseEntryIgnoresProcessHistory(t *testing.T) {
	type unrelated struct {
		A int
		B []string
	}
	if err := gob.NewEncoder(io.Discard).Encode(unrelated{A: 1, B: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Cache: c})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, tracetest.Tiny()))
	rec := do(h, "POST", "/v1/price", []byte(fmt.Sprintf(`{"workload":%q,"core_clock_ghz":1.3}`, fp)))
	if rec.Code != http.StatusOK {
		t.Fatalf("price: %d: %s", rec.Code, rec.Body)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*", "*.s3dc"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("entries %v (%v), want one", paths, err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	payload, err := cache.DecodeFramed(raw)
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&body); err != nil {
		t.Fatalf("entry payload is not the body's bytes: %v", err)
	}
	if !bytes.Equal(body, rec.Body.Bytes()) {
		t.Fatalf("entry holds %s, the query answered %s", body, rec.Body)
	}
	const want = "04f24df57c8399f7bdc80f6e90b27e150ce627cc4407886ac1d327d65acf2008"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
		t.Fatalf("entry digest %s, want %s: the entry's bytes changed", got, want)
	}
}

// TestSubsetRejectsModeField: clustering has one exact path, so a
// "mode" in a subset query is an unknown field, answered 400
// bad_request whatever its value, while the same query without it
// succeeds.
func TestSubsetRejectsModeField(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, tracetest.Tiny()))

	for _, mode := range []string{"bucketed", "exact"} {
		rec := do(h, "POST", "/v1/subset", []byte(fmt.Sprintf(`{"workload":%q,"mode":%q}`, fp, mode)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("mode %q: %d, want 400 (%s)", mode, rec.Code, rec.Body)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Class != "bad_request" {
			t.Errorf("mode %q: class = %q, want bad_request", mode, eb.Class)
		}
	}

	rec := do(h, "POST", "/v1/subset", []byte(fmt.Sprintf(`{"workload":%q}`, fp)))
	if rec.Code != http.StatusOK {
		t.Fatalf("no mode: %d: %s", rec.Code, rec.Body)
	}
	var resp SubsetResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.SubsetFrames) == 0 || resp.SizeRatio <= 0 {
		t.Errorf("degenerate subset response: %+v", resp)
	}
}

func TestSweepAndPrice(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, tracetest.Tiny()))

	rec := do(h, "POST", "/v1/sweep", []byte(fmt.Sprintf(`{"workload":%q,"core_clocks":[0.5,1.0,2.0]}`, fp)))
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: %d: %s", rec.Code, rec.Body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 3 {
		t.Fatalf("sweep points = %d, want 3", len(sr.Points))
	}
	if sr.Points[0].Speedup != 1.0 {
		t.Errorf("first point speedup = %v, want 1.0", sr.Points[0].Speedup)
	}
	if sr.Points[2].TotalNs >= sr.Points[0].TotalNs {
		t.Errorf("2.0 GHz (%v ns) not faster than 0.5 GHz (%v ns)", sr.Points[2].TotalNs, sr.Points[0].TotalNs)
	}

	rec = do(h, "POST", "/v1/price", []byte(fmt.Sprintf(`{"workload":%q}`, fp)))
	if rec.Code != http.StatusOK {
		t.Fatalf("price: %d: %s", rec.Code, rec.Body)
	}
	var pr PriceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.TotalNs <= 0 || pr.FPS <= 0 {
		t.Errorf("degenerate pricing: %+v", pr)
	}

	// Oversized grid is rejected before any pricing.
	big := make([]float64, 64)
	for i := range big {
		big[i] = 0.1 * float64(i+1)
	}
	bj, _ := json.Marshal(SweepRequest{Workload: fp, CoreClocks: big, MemClocks: big})
	rec = do(h, "POST", "/v1/sweep", bj)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized grid: %d, want 400", rec.Code)
	}
}

// TestSparseShaderIDsUploadAndPrice uploads a workload whose shader
// ids span the whole uint32 range — subsetd accepts any id — and
// prices it: no lookup table may be sized by the largest id, and the
// answer must match pricing the same workload in process.
func TestSparseShaderIDsUploadAndPrice(t *testing.T) {
	w := tracetest.Tiny()
	remap := map[shader.ID]shader.ID{1: 7, 2: 0x80000000, 3: 0xFFFFFFF0, 4: 0xFFFFFFFF}
	progs := w.Shaders.Programs()
	for _, p := range progs {
		p.ID = remap[p.ID]
	}
	reg, err := shader.RestoreRegistry(progs)
	if err != nil {
		t.Fatal(err)
	}
	w.Shaders = reg
	for fi := range w.Frames {
		for di := range w.Frames[fi].Draws {
			d := &w.Frames[fi].Draws[di]
			d.VS, d.PS = remap[d.VS], remap[d.PS]
		}
	}
	sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.PriceParent(context.Background(), sim, w, gpu.BaseConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, w))
	rec := do(h, "POST", "/v1/price", []byte(fmt.Sprintf(`{"workload":%q}`, fp)))
	if rec.Code != http.StatusOK {
		t.Fatalf("price: %d: %s", rec.Code, rec.Body)
	}
	var pr PriceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.TotalNs != want.TotalNs {
		t.Errorf("served total %v ns, in-process %v ns", pr.TotalNs, want.TotalNs)
	}
	rec = do(h, "POST", "/v1/sweep", []byte(fmt.Sprintf(`{"workload":%q,"core_clocks":[1.0,2.0]}`, fp)))
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: %d: %s", rec.Code, rec.Body)
	}
}

func TestQueryValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, tracetest.Tiny()))
	cases := []struct {
		name, path, body string
		want             int
		detail           string // the error names it
	}{
		{"unknown workload", "/v1/subset", `{"workload":"0000000000000000000000000000000000000000000000000000000000000000"}`, http.StatusNotFound, ""},
		{"malformed fingerprint", "/v1/subset", `{"workload":"nope"}`, http.StatusNotFound, ""},
		{"bad json", "/v1/subset", `{"workload":`, http.StatusBadRequest, ""},
		{"unknown field", "/v1/subset", `{"workload":"x","typo_field":1}`, http.StatusBadRequest, ""},
		{"negative core clock", "/v1/price", fmt.Sprintf(`{"workload":%q,"core_clock_ghz":-1}`, fp), http.StatusBadRequest, "core clock -1"},
		{"negative mem clock", "/v1/price", fmt.Sprintf(`{"workload":%q,"mem_clock_ghz":-0.5}`, fp), http.StatusBadRequest, "mem clock -0.5"},
		{"negative clock in a grid", "/v1/sweep", fmt.Sprintf(`{"workload":%q,"core_clocks":[1,-2]}`, fp), http.StatusBadRequest, "core clock -2"},
		// Valid clocks whose price overflows to +Inf, which no JSON
		// answer can carry.
		{"subnormal core clock", "/v1/price", fmt.Sprintf(`{"workload":%q,"core_clock_ghz":1e-310}`, fp), http.StatusBadRequest, "core clock 1e-310"},
		{"subnormal mem clock", "/v1/price", fmt.Sprintf(`{"workload":%q,"mem_clock_ghz":1e-310}`, fp), http.StatusBadRequest, "mem clock 1e-310"},
		{"subnormal clock in a grid", "/v1/sweep", fmt.Sprintf(`{"workload":%q,"core_clocks":[1,1e-310]}`, fp), http.StatusBadRequest, "core clock 1e-310"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(h, "POST", tc.path, []byte(tc.body))
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (%s)", rec.Code, tc.want, rec.Body)
			}
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatal(err)
			}
			if tc.want == http.StatusBadRequest && eb.Class != "bad_request" {
				t.Errorf("class = %q, want bad_request", eb.Class)
			}
			if !strings.Contains(eb.Error, tc.detail) {
				t.Errorf("error %q does not name %q", eb.Error, tc.detail)
			}
		})
	}
}

func TestListAndGet(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, tracetest.Tiny()))

	rec := do(h, "GET", "/v1/workloads", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d", rec.Code)
	}
	var list struct {
		Workloads []WorkloadInfo `json:"workloads"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workloads) != 1 || list.Workloads[0].Fingerprint != fp {
		t.Errorf("listing = %+v, want the uploaded workload", list.Workloads)
	}

	rec = do(h, "GET", "/v1/workloads/"+fp, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get: %d", rec.Code)
	}
	rec = do(h, "GET", "/v1/workloads/ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("get unknown: %d, want 404", rec.Code)
	}
}

func TestRegistryFull(t *testing.T) {
	s := newTestServer(t, Options{MaxWorkloads: 1})
	h := s.Handler()
	upload(t, h, streamBody(t, tracetest.Tiny()))

	other := tracetest.Tiny()
	other.Name = "tiny-2"
	rec := do(h, "POST", "/v1/workloads", streamBody(t, other))
	if rec.Code != http.StatusInsufficientStorage {
		t.Fatalf("over-cap upload: %d, want 507", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Class != "registry_full" {
		t.Errorf("class = %q, want registry_full", eb.Class)
	}
}

// TestOverloadSheds is the shed-don't-collapse experiment in unit-test
// form: at 4x the admission limit, excess arrivals get fast 429s with
// Retry-After, admitted requests all succeed within their normal
// latency, nothing panics, and no goroutines leak.
func TestOverloadSheds(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newTestServer(t, Options{
		MaxConcurrent: 2,
		QueueDepth:    2,
		QueueWait:     500 * time.Millisecond,
	})
	// A compute-bearing route with a fixed service time.
	s.handle("slow", "GET /slowtest", true, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(100 * time.Millisecond):
			s.writeJSON(w, http.StatusOK, map[string]string{"ok": "true"})
		case <-r.Context().Done():
			s.writeErr(w, r.Context().Err())
		}
	})
	h := s.Handler()

	const n = 16 // 4x the (MaxConcurrent + QueueDepth) capacity
	codes := make([]int, n)
	lat := make([]time.Duration, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			rec := do(h, "GET", "/slowtest", nil)
			lat[i] = time.Since(start)
			codes[i] = rec.Code
			retryAfter[i] = rec.Header().Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok, shed int
	var maxOKLat time.Duration
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
			if lat[i] > maxOKLat {
				maxOKLat = lat[i]
			}
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, c)
		}
	}
	// Capacity admits at most MaxConcurrent+QueueDepth of a simultaneous
	// burst; everything else must shed, not block.
	if ok == 0 || ok > 4 {
		t.Errorf("%d requests admitted, want 1..4", ok)
	}
	if shed < n-4 {
		t.Errorf("%d requests shed, want >= %d", shed, n-4)
	}
	// Admitted requests keep bounded latency: two 100ms service slots
	// plus queueing, far under collapse territory.
	if maxOKLat > 5*time.Second {
		t.Errorf("admitted p100 latency %v, want bounded", maxOKLat)
	}
	if got := s.run.Metrics().Counter("serve.panics").Value(); got != 0 {
		t.Errorf("%d panics under overload", got)
	}

	// Drain now and verify goroutines settle (no leaks from shed work).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after drain", before, runtime.NumGoroutine())
}

// TestPanicContainment: a panicking handler answers 500 to its own
// request without leaking the panic value, and the server keeps
// serving.
func TestPanicContainment(t *testing.T) {
	s := newTestServer(t, Options{})
	s.handle("boom", "GET /boom", false, func(w http.ResponseWriter, r *http.Request) {
		panic("secret internal state 0xdeadbeef")
	})
	h := s.Handler()

	rec := do(h, "GET", "/boom", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking route: %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Class != "panic" {
		t.Errorf("class = %q, want panic", eb.Class)
	}
	if bytes.Contains(rec.Body.Bytes(), []byte("0xdeadbeef")) {
		t.Error("panic value leaked to the client")
	}
	if got := s.run.Metrics().Counter("serve.panics").Value(); got != 1 {
		t.Errorf("serve.panics = %d, want 1", got)
	}

	// The server survives: a normal request still works.
	rec = do(h, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("healthz after panic: %d", rec.Code)
	}
}

// TestGracefulDrain: in-flight requests finish, new arrivals get 503 +
// Retry-After, /readyz flips to 503 before in-flight requests finish
// while /healthz (liveness) stays 200, and Drain returns once the last
// request completes.
func TestGracefulDrain(t *testing.T) {
	s := New(Options{Run: obs.NewRun("serve-test")})
	inHandler := make(chan struct{})
	s.handle("slow", "GET /slowtest", false, func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		time.Sleep(200 * time.Millisecond)
		s.writeJSON(w, http.StatusOK, map[string]string{"ok": "true"})
	})
	h := s.Handler()

	slowDone := make(chan int, 1)
	go func() {
		rec := do(h, "GET", "/slowtest", nil)
		slowDone <- rec.Code
	}()
	<-inHandler

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()

	// Give Drain a moment to flip the draining flag, then probe. The
	// slow request is still in flight: readiness must already be gone
	// (load balancers stop sending now), liveness must hold (the
	// process is alive and finishing work), and application routes
	// must answer 503 + Retry-After.
	deadline := time.Now().Add(time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rec := do(h, "GET", "/v1/stats", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("application request during drain: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 during drain lacks Retry-After")
	}
	rec = do(h, "GET", "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("readyz 503 during drain lacks Retry-After")
	}
	var rz struct {
		Ready    bool     `json:"ready"`
		Draining bool     `json:"draining"`
		Reasons  []string `json:"reasons"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	if rz.Ready || !rz.Draining || len(rz.Reasons) == 0 {
		t.Errorf("readyz body during drain = %+v, want not-ready with reasons", rz)
	}
	rec = do(h, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("healthz during drain: %d, want 200 (liveness)", rec.Code)
	}
	rec = do(h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("metrics during drain: %d, want 200 (scrapable while draining)", rec.Code)
	}

	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case code := <-slowDone:
		if code != http.StatusOK {
			t.Errorf("in-flight request during drain: %d, want 200", code)
		}
	case <-time.After(time.Second):
		t.Fatal("in-flight request never completed")
	}
}

// --- admitter unit tests ---

func TestAdmitterShedsBeyondQueue(t *testing.T) {
	a := newAdmitter(1, 1, 100*time.Millisecond, nil)
	release, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One more fits in the queue (and will time out there); a third
	// must shed immediately.
	queuedErr := make(chan error, 1)
	go func() {
		_, err := a.admit(context.Background())
		queuedErr <- err
	}()
	for a.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if _, err := a.admit(context.Background()); err != ErrOverloaded {
		t.Errorf("over-queue admit: %v, want ErrOverloaded", err)
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Errorf("immediate shed took %v", el)
	}
	if err := <-queuedErr; err != ErrOverloaded {
		t.Errorf("queued admit after wait: %v, want ErrOverloaded", err)
	}
	release()

	// With the slot free again, admission succeeds on the fast path.
	release2, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release2()
}

func TestAdmitterHonorsContext(t *testing.T) {
	a := newAdmitter(1, 4, time.Minute, nil)
	release, _ := a.admit(context.Background())
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := a.admit(ctx); err != context.Canceled {
		t.Errorf("admit on canceled ctx: %v, want context.Canceled", err)
	}
}

// --- query execution path ---

// queryKey is the key of the test query named name.
func queryKey(name string) cache.Key { return cache.NewKey("test.query", 1).String(name).Sum() }

// query runs the compute query named name through runQuery under ctx,
// with no cache.
func query(s *Server, ctx context.Context, name string, fn func(context.Context) (any, error)) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.runQuery(rec, httptest.NewRequest("POST", "/v1/subset", nil).WithContext(ctx), queryKey(name), nil, fn)
	return rec
}

// parkedOn waits until n followers are parked on key's in-flight call.
func parkedOn(t *testing.T, g *flightGroup, key string, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g.mu.Lock()
		c := g.m[key]
		g.mu.Unlock()
		if c != nil && c.waiters.Load() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%d followers never parked on %q", n, key)
}

// TestQueryPanicReleasesFollowers: a panicking computation answers 500
// (class panic, value withheld) to its leader and to every follower
// parked on it, leaves a concurrent query on another key untouched,
// clears its flight key, and the next identical request computes
// afresh.
func TestQueryPanicReleasesFollowers(t *testing.T) {
	s := newTestServer(t, Options{})
	const key, followers = "subset:poisoned", 3
	inLeader := make(chan struct{})
	release := make(chan struct{})
	recs := make([]*httptest.ResponseRecorder, followers+1)
	var sibling *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		recs[0] = query(s, context.Background(), key, func(context.Context) (any, error) {
			close(inLeader)
			<-release
			panic("secret internal state 0xdeadbeef")
		})
	}()
	go func() {
		defer wg.Done()
		sibling = query(s, context.Background(), "subset:sibling", func(context.Context) (any, error) {
			<-release
			return "sibling", nil
		})
	}()
	<-inLeader
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = query(s, context.Background(), key, func(context.Context) (any, error) {
				return "recomputed", nil
			})
		}()
	}
	parkedOn(t, s.flight, queryKey(key).String(), followers)
	close(release)
	wg.Wait()

	for i, rec := range recs {
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("request %d: %v: %s", i, err, rec.Body)
		}
		if rec.Code != http.StatusInternalServerError || eb.Class != "panic" {
			t.Errorf("request %d: %d class %q, want 500 class panic", i, rec.Code, eb.Class)
		}
		if bytes.Contains(rec.Body.Bytes(), []byte("0xdeadbeef")) {
			t.Errorf("request %d: panic value leaked to the client", i)
		}
	}
	if sibling.Code != http.StatusOK || sibling.Body.String() != `"sibling"` {
		t.Errorf("sibling query: %d %s, want 200 \"sibling\"", sibling.Code, sibling.Body)
	}
	s.flight.mu.Lock()
	left := len(s.flight.m)
	s.flight.mu.Unlock()
	if left != 0 {
		t.Errorf("%d flight keys left after the panic, want 0", left)
	}

	rec := query(s, context.Background(), key, func(context.Context) (any, error) {
		return "fresh", nil
	})
	if rec.Code != http.StatusOK || rec.Body.String() != `"fresh"` {
		t.Errorf("identical request after the panic: %d %s, want 200 \"fresh\"", rec.Code, rec.Body)
	}
}

// TestQueryFollowerOutlivesLeader: a live follower coalesced onto a
// leader whose own request died — client gone or deadline passed — is
// answered from a computation of its own, while a genuine computation
// error stays shared with the follower.
func TestQueryFollowerOutlivesLeader(t *testing.T) {
	cases := []struct {
		name         string
		cancelLeader bool
		leader       func(ctx context.Context) error // the leader's computation result
		leaderCode   int
		followerCode int
		coalesced    bool
	}{
		{"leader canceled", true, func(ctx context.Context) error { return ctx.Err() }, 499, http.StatusOK, false},
		{"leader deadline", false, func(context.Context) error {
			return fmt.Errorf("pricing: %w", context.DeadlineExceeded)
		}, http.StatusGatewayTimeout, http.StatusOK, false},
		{"computation error", false, func(context.Context) error {
			return errors.New("computation failed")
		}, http.StatusInternalServerError, http.StatusInternalServerError, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Options{})
			const key = "subset:k"
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inLeader := make(chan struct{})
			release := make(chan struct{})
			leaderRec := make(chan *httptest.ResponseRecorder, 1)
			go func() {
				leaderRec <- query(s, ctx, key, func(ctx context.Context) (any, error) {
					close(inLeader)
					<-release
					return nil, tc.leader(ctx)
				})
			}()
			<-inLeader
			var followerRan atomic.Bool
			followerRec := make(chan *httptest.ResponseRecorder, 1)
			go func() {
				followerRec <- query(s, context.Background(), key, func(context.Context) (any, error) {
					followerRan.Store(true)
					return "follower", nil
				})
			}()
			parkedOn(t, s.flight, queryKey(key).String(), 1)
			if tc.cancelLeader {
				cancel()
			}
			close(release)

			if lr := <-leaderRec; lr.Code != tc.leaderCode {
				t.Errorf("leader: %d, want %d", lr.Code, tc.leaderCode)
			}
			fr := <-followerRec
			if fr.Code != tc.followerCode {
				t.Errorf("follower: %d %s, want %d", fr.Code, fr.Body, tc.followerCode)
			}
			if got := fr.Header().Get("X-Subsetd-Coalesced") == "true"; got != tc.coalesced {
				t.Errorf("follower coalesced = %v, want %v", got, tc.coalesced)
			}
			if followerRan.Load() == tc.coalesced {
				t.Errorf("follower computed = %v, want %v", followerRan.Load(), !tc.coalesced)
			}
			if tc.followerCode == http.StatusOK && fr.Body.String() != `"follower"` {
				t.Errorf("follower body %s, want its own computation", fr.Body)
			}
		})
	}
}

// --- singleflight unit tests ---

func TestFlightGroupCoalesces(t *testing.T) {
	g := &flightGroup{}
	inLeader := make(chan struct{})
	releaseLeader := make(chan struct{})
	var calls atomic.Int64

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		data, shared, err := g.do(context.Background(), "k", func() ([]byte, error) {
			calls.Add(1)
			close(inLeader)
			<-releaseLeader
			return []byte("result"), nil
		})
		if err != nil || shared || string(data) != "result" {
			t.Errorf("leader: (%q, shared=%v, %v)", data, shared, err)
		}
	}()
	<-inLeader

	const followers = 5
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, shared, err := g.do(context.Background(), "k", func() ([]byte, error) {
				calls.Add(1)
				return []byte("recomputed"), nil
			})
			if err != nil || !shared || string(data) != "result" {
				t.Errorf("follower: (%q, shared=%v, %v)", data, shared, err)
			}
		}()
	}
	// Release the leader only after every follower is parked on its
	// done channel, so all of them must ride the coalesced result.
	parkedOn(t, g, "k", followers)
	close(releaseLeader)
	wg.Wait()
	<-leaderDone
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
}

func TestFlightGroupFollowerCancel(t *testing.T) {
	g := &flightGroup{}
	inLeader := make(chan struct{})
	releaseLeader := make(chan struct{})
	go g.do(context.Background(), "k", func() ([]byte, error) {
		close(inLeader)
		<-releaseLeader
		return nil, nil
	})
	<-inLeader
	defer close(releaseLeader)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := g.do(ctx, "k", func() ([]byte, error) { return nil, nil })
	if err != context.Canceled {
		t.Errorf("canceled follower: %v, want context.Canceled", err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	rec := do(h, "GET", "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"requests", "admitted", "shed", "workloads", "draining"} {
		if _, ok := stats[k]; !ok {
			t.Errorf("stats missing %q", k)
		}
	}
}
