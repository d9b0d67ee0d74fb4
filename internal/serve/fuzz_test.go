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

// fuzzServer is shared across fuzz iterations (the handler is
// concurrency-safe); building a server per input would dominate the
// fuzzing loop.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzHandler() http.Handler {
	fuzzOnce.Do(func() {
		fuzzSrv = New(Options{
			Run: obs.NewRun("serve-fuzz"),
			// Large registry so repaired variants don't exhaust it —
			// though 507 is an acceptable answer too.
			MaxWorkloads: 1 << 20,
		})
	})
	return fuzzSrv.Handler()
}

// FuzzUploadDecode throws arbitrary bytes at the upload endpoint: the
// server must answer every input with a mapped status and a JSON body
// — never a panic, never an unclassified 500.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		h := fuzzHandler()
		req := httptest.NewRequest("POST", "/v1/workloads", bytes.NewReader(data))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusCreated,
			http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusUnsupportedMediaType, http.StatusUnprocessableEntity,
			http.StatusInsufficientStorage:
		default:
			t.Fatalf("input %q: unmapped status %d: %s", truncate(data), rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("input %q: content-type %q, want application/json", truncate(data), ct)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("input %q: response is not valid JSON: %s", truncate(data), rec.Body)
		}
		if rec.Code >= 400 {
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Class == "" {
				t.Fatalf("input %q: error response lacks class: %s", truncate(data), rec.Body)
			}
			if eb.Class == "panic" || eb.Class == "internal" {
				t.Fatalf("input %q: upload hit class %q", truncate(data), eb.Class)
			}
		}
	})
}

func truncate(data []byte) []byte {
	if len(data) > 64 {
		return data[:64]
	}
	return data
}
