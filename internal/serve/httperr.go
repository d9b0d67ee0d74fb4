package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/parallel"
	"repro/internal/sweep"
	"repro/internal/traceerr"
)

// Service-level failure sentinels, alongside the traceerr taxonomy.
var (
	// ErrOverloaded sheds a request the admission controller could not
	// seat within its queue bounds (429).
	ErrOverloaded = errors.New("serve: overloaded, request shed")

	// ErrDraining rejects a request that arrived after graceful
	// shutdown began (503).
	ErrDraining = errors.New("serve: draining, not accepting requests")

	// ErrUnknownWorkload rejects a query naming a fingerprint the
	// registry does not hold (404).
	ErrUnknownWorkload = errors.New("serve: unknown workload fingerprint")

	// ErrRegistryFull rejects an upload past the registry cap (507).
	ErrRegistryFull = errors.New("serve: workload registry full")
)

// apiError pins an explicit status and class onto an error, for
// handler-local failures (malformed request JSON, oversized grids) that
// no sentinel covers.
type apiError struct {
	status int
	class  string
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, class: "bad_request", err: fmt.Errorf(format, args...)}
}

// errorBody is the JSON shape of every non-2xx response. Class is the
// machine-readable contract: one string per failure class, stable
// across message rewording, so clients branch on it — never on Error.
type errorBody struct {
	Error string `json:"error"`
	Class string `json:"class"`
}

// classify maps an error onto its HTTP status and failure class. The
// traceerr taxonomy gets one status per sentinel — this table is the
// service's ingestion contract, pinned by a test:
//
//	ErrTooLarge        413  too_large        (and http.MaxBytesError)
//	ErrVersionMismatch 415  version_mismatch
//	ErrTruncated       400  truncated
//	ErrCorruptRecord   400  corrupt_record
//	ErrInvalidFrame    422  invalid_frame
func classify(err error) (int, string) {
	var ae *apiError
	var mbe *http.MaxBytesError
	var pe *parallel.PanicError
	switch {
	case errors.As(err, &ae):
		return ae.status, ae.class
	case errors.Is(err, sweep.ErrNotFinite):
		// A clock the config check admits priced to a time no answer
		// can carry: the client's clock, not the server.
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrUnknownWorkload):
		return http.StatusNotFound, "unknown_workload"
	case errors.Is(err, ErrRegistryFull):
		return http.StatusInsufficientStorage, "registry_full"
	case errors.Is(err, traceerr.ErrTooLarge), errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, traceerr.ErrVersionMismatch):
		return http.StatusUnsupportedMediaType, "version_mismatch"
	case errors.Is(err, traceerr.ErrTruncated):
		return http.StatusBadRequest, "truncated"
	case errors.Is(err, traceerr.ErrCorruptRecord):
		return http.StatusBadRequest, "corrupt_record"
	case errors.Is(err, traceerr.ErrInvalidFrame):
		return http.StatusUnprocessableEntity, "invalid_frame"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		// 499 (client closed request, nginx convention): the client is
		// gone, the status is for the access log.
		return 499, "canceled"
	case errors.As(err, &pe):
		return http.StatusInternalServerError, "panic"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeErr answers err as its mapped status with a JSON error body.
// Shed/drain responses carry Retry-After; panic responses never leak
// the panic value or stack to the client (they are logged server-side).
// The class is mirrored onto a response header so the middleware can
// record a classified event without re-parsing its own body.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	status, class := classify(err)
	msg := err.Error()
	if class == "panic" || class == "internal" {
		msg = "internal error"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(errClassHeader, class)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterValue(s.opt.RetryAfter))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg, Class: class})
}

// retryAfterValue renders a Retry-After header in whole seconds,
// never below 1 — a zero hint reads as "retry immediately", the
// opposite of what a shedding server wants.
func retryAfterValue(d time.Duration) string {
	secs := int(d.Seconds())
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
