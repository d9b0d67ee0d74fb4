package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

// The fuzz servers, a lenient and a strict one, are shared across fuzz
// iterations (the handler is concurrency-safe); building a server per
// input would dominate the fuzzing loop.
var (
	fuzzOnce     sync.Once
	fuzzHandlers [2]http.Handler
)

func fuzzServers() [2]http.Handler {
	fuzzOnce.Do(func() {
		for i, strict := range []bool{false, true} {
			fuzzHandlers[i] = New(Options{
				Run: obs.NewRun("serve-fuzz"),
				// Large registry so repaired variants don't exhaust it —
				// though 507 is an acceptable answer too.
				MaxWorkloads: 1 << 20,
				Strict:       strict,
			}).Handler()
		}
	})
	return fuzzHandlers
}

// FuzzUploadDecode throws arbitrary bytes at the upload endpoint of a
// lenient and a strict server: each must answer every input with a
// mapped status and a JSON body — never a panic, never an unclassified
// 500.
func FuzzUploadDecode(f *testing.F) {
	wl := tracetest.Tiny()
	var stream, jsonBuf bytes.Buffer
	if err := trace.EncodeStream(&stream, wl); err != nil {
		f.Fatal(err)
	}
	if err := wl.EncodeJSON(&jsonBuf); err != nil {
		f.Fatal(err)
	}

	f.Add(stream.Bytes())
	f.Add(gobFixture(f))
	f.Add(jsonBuf.Bytes())
	f.Add(stream.Bytes()[:len(stream.Bytes())/2]) // truncated stream
	f.Add([]byte("3DWS"))                         // bare magic
	f.Add([]byte("3DWS\x07garbage"))              // wrong version
	f.Add([]byte("{"))                            // truncated JSON
	f.Add([]byte("{}"))                           // empty JSON object
	f.Add([]byte{})                               // empty body
	f.Add([]byte("\x00\x01\x02\x03"))             // garbage gob
	corrupted := append([]byte(nil), stream.Bytes()...)
	if len(corrupted) > 30 {
		corrupted[len(corrupted)-20] ^= 0xFF
	}
	f.Add(corrupted)
	f.Add(uploadForms(f, dupShaderWire())["json"])
	noName := tinyWire()
	noName.Name = ""
	f.Add(uploadForms(f, noName)["json"])
	f.Add(jsonBuf.Bytes()[:jsonBuf.Len()/2]) // half a JSON document
	f.Add(v1Fixture(f))
	f.Add(uploadForms(f, invalidDrawWire())["gob"])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		for i, h := range fuzzServers() {
			checkUploadAnswer(t, h, data, i == 1)
		}
	})
}

// checkUploadAnswer uploads data and holds the answer to the upload
// contract.
func checkUploadAnswer(t *testing.T, h http.Handler, data []byte, strict bool) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/workloads", bytes.NewReader(data))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	switch rec.Code {
	case http.StatusOK, http.StatusCreated,
		http.StatusBadRequest, http.StatusRequestEntityTooLarge,
		http.StatusUnsupportedMediaType, http.StatusUnprocessableEntity,
		http.StatusInsufficientStorage:
	default:
		t.Fatalf("strict=%v input %q: unmapped status %d: %s", strict, truncate(data), rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("strict=%v input %q: content-type %q, want application/json", strict, truncate(data), ct)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("strict=%v input %q: response is not valid JSON: %s", strict, truncate(data), rec.Body)
	}
	if rec.Code >= 400 {
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Class == "" {
			t.Fatalf("strict=%v input %q: error response lacks class: %s", strict, truncate(data), rec.Body)
		}
		if eb.Class == "panic" || eb.Class == "internal" {
			t.Fatalf("strict=%v input %q: upload hit class %q", strict, truncate(data), eb.Class)
		}
	}
}

func truncate(data []byte) []byte {
	if len(data) > 64 {
		return data[:64]
	}
	return data
}
