// Package coord is the multi-worker sweep coordinator: the layer that
// turns the PR-9 shard substrate (shard.Spec / GridDigest / Merge and
// subsetd's POST /v1/shard/sweep) into an actual multi-process system.
//
// A Coordinator takes a config grid, plans it into shards with
// shard.Plan, and fans one /v1/shard/sweep request per shard out to a
// fleet of subsetd workers over HTTP. The dispatch loop is built for
// workers that are slow, dead, or shedding load:
//
//   - Bounded retry with backoff. A connection error, 429 or 503
//     retries on the same worker with exponential backoff, honoring a
//     Retry-After hint when the server sent one. A 404 unknown_workload
//     (a worker relaunched without its registry) re-uploads the trace
//     and retries.
//   - Per-shard timeouts and work stealing. An attempt that outlives
//     ShardTimeout is abandoned in place — the shard goes back on the
//     queue for another worker while the slow request keeps running in
//     the background. If it eventually succeeds anyway, its manifest is
//     recorded as a duplicate.
//   - Duplicate safety by merge equality. shard.Merge requires
//     duplicate entries to be field-for-field equal (==) and fails
//     loudly otherwise, so a stolen-then-recovered shard can never
//     corrupt the result — it either agrees byte-for-byte or the sweep
//     errors.
//
// Nothing here is allowed to change results: the merged RunManifest is
// byte-identical to shard.RunSequential's, no matter how many workers
// ran, how work was stolen, or how many duplicates arrived. The
// determinism and chaos suites in this package enforce that contract.
package coord

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Options configures a Coordinator. Only Workers is required; the zero
// value of every other field selects a production-safe default.
type Options struct {
	// Workers are the subsetd base URLs ("http://host:port") the sweep
	// fans out to. At least one is required.
	Workers []string

	// Shards is the number of work units the grid is planned into
	// (default 2 x len(Workers), so stealing has slack even when every
	// worker is healthy). Clamped to the grid size — an empty shard is
	// valid but pointless to dispatch.
	Shards int

	// ShardTimeout bounds one dispatch attempt's wall clock (default
	// 2m). An attempt that outlives it is abandoned to the background
	// and its shard stolen by the next free worker.
	ShardTimeout time.Duration

	// AttemptsPerWorker bounds same-worker retries (connection errors,
	// 429/503, 404-after-reupload) within one dispatch before the shard
	// is handed back for another worker to steal (default 3).
	AttemptsPerWorker int

	// MaxAttempts bounds how many times one shard may be dispatched in
	// total, across all workers (default 2 x len(Workers) + 4). A shard
	// exceeding it fails the sweep — the alternative is spinning forever
	// against a fleet that cannot complete it.
	MaxAttempts int

	// Backoff is the initial retry backoff, doubled per retry and
	// capped at 1s; a server-sent Retry-After hint overrides it
	// (default 50ms).
	Backoff time.Duration

	// RegisterRetries bounds per-worker upload attempts in Register —
	// generous by default (20) so a fleet can still be starting up when
	// the coordinator launches.
	RegisterRetries int

	// MaxInflight bounds dispatch attempts in flight across the whole
	// sweep (0 = unlimited). The scaling benchmark sets 1 to measure
	// clean per-attempt wall times.
	MaxInflight int

	// HTTP is the client used for every request (default: a plain
	// http.Client; per-attempt deadlines come from ShardTimeout and the
	// sweep context, not a client-wide timeout).
	HTTP *http.Client

	// Run is the coordinator's observability handle. Nil disables
	// logging and metrics.
	Run *obs.Run

	// OnEvent, when set, observes the dispatch loop synchronously —
	// the hook the chaos and steal tests key their orchestration off.
	// It may be called from multiple goroutines.
	OnEvent func(Event)
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 2 * len(o.Workers)
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 2 * time.Minute
	}
	if o.AttemptsPerWorker <= 0 {
		o.AttemptsPerWorker = 3
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2*len(o.Workers) + 4
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.RegisterRetries <= 0 {
		o.RegisterRetries = 20
	}
	if o.HTTP == nil {
		o.HTTP = &http.Client{}
	}
	return o
}

// EventKind labels one dispatch-loop event.
type EventKind int

const (
	// EventDispatch: one attempt is about to be posted to a worker.
	EventDispatch EventKind = iota
	// EventComplete: a shard's first manifest was recorded.
	EventComplete
	// EventDuplicate: a manifest arrived for an already-complete shard
	// (a stolen-then-recovered attempt).
	EventDuplicate
	// EventRetry: an attempt failed retryably and will retry on the
	// same worker after backoff.
	EventRetry
	// EventSteal: a shard went back on the queue for another worker
	// (timeout, or the worker's retry budget ran out).
	EventSteal
	// EventWorkerFail: an attempt failed terminally on its worker.
	EventWorkerFail
	// EventReupload: the trace was re-uploaded to a worker that
	// answered 404 unknown_workload.
	EventReupload
)

// Event is one observation from the dispatch loop.
type Event struct {
	Kind   EventKind
	Shard  int // 0-based shard index; -1 for non-shard events
	Worker string
	Err    error
}

// WorkerCounters is one worker's share of a sweep.
type WorkerCounters struct {
	// Completed counts shards whose first manifest this worker
	// produced; Duplicates counts manifests it produced for shards
	// already completed elsewhere.
	Completed  int
	Duplicates int
	// Retries counts same-worker retry sleeps; Failures counts
	// attempts that ended without a manifest.
	Retries  int
	Failures int
	// BusyNs sums the wall time of this worker's manifest-producing
	// attempts — the per-worker critical-path input the scaling
	// benchmark folds with max().
	BusyNs int64
}

// Stats is a sweep's dispatch accounting.
type Stats struct {
	Shards     int
	Attempts   int
	Completed  int
	Duplicates int
	Retries    int
	Steals     int
	Reuploads  int
	MergeNs    int64
	PerWorker  map[string]*WorkerCounters
}

// Coordinator fans sweeps out to a fixed fleet of subsetd workers.
// Construct with New, point it at a workload with Register (or
// SetWorkload), then call Sweep. Safe for sequential reuse; one Sweep
// at a time.
type Coordinator struct {
	opt Options
	run *obs.Run

	fpHex      string
	fp         trace.Fingerprint
	traceBytes []byte // retained for 404 re-upload; nil under SetWorkload
}

// New validates the options and builds a coordinator.
func New(opt Options) (*Coordinator, error) {
	if len(opt.Workers) == 0 {
		return nil, fmt.Errorf("coord: no workers configured")
	}
	for _, u := range opt.Workers {
		if u == "" {
			return nil, fmt.Errorf("coord: empty worker URL")
		}
	}
	opt = opt.withDefaults()
	return &Coordinator{opt: opt, run: opt.Run}, nil
}

// SetWorkload points the coordinator at an already-registered workload
// by hex fingerprint. Without retained trace bytes the coordinator
// cannot repair a worker that answers 404 — prefer Register unless
// every worker is known to hold the workload durably.
func (co *Coordinator) SetWorkload(fpHex string) error {
	raw, err := hex.DecodeString(fpHex)
	if err != nil || len(raw) != len(co.fp) {
		return fmt.Errorf("coord: %q is not a %d-hex-digit fingerprint", fpHex, 2*len(co.fp))
	}
	copy(co.fp[:], raw)
	co.fpHex = fpHex
	co.traceBytes = nil
	return nil
}

// Register uploads one trace (stream container, JSON or legacy gob —
// the server sniffs) to every worker, retrying through connection errors and
// 429/503 shedding so a still-starting fleet converges. All workers
// must report the same fingerprint — a fleet that sanitizes one upload
// differently would silently diverge mid-sweep, so it is an error
// here. The bytes are retained to repair 404s mid-sweep.
func (co *Coordinator) Register(ctx context.Context, traceBytes []byte) (string, error) {
	if len(traceBytes) == 0 {
		return "", fmt.Errorf("coord: empty trace")
	}
	fps := make([]string, len(co.opt.Workers))
	errs := make([]error, len(co.opt.Workers))
	var wg sync.WaitGroup
	for i, u := range co.opt.Workers {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			fps[i], errs[i] = co.uploadTo(ctx, u, traceBytes)
		}(i, u)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return "", fmt.Errorf("coord: registering on %s: %w", co.opt.Workers[i], err)
		}
	}
	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			return "", fmt.Errorf("coord: fleet disagrees on fingerprint: %s reports %s, %s reports %s",
				co.opt.Workers[0], fps[0], co.opt.Workers[i], fps[i])
		}
	}
	if err := co.SetWorkload(fps[0]); err != nil {
		return "", err
	}
	co.traceBytes = traceBytes
	co.run.Logger().Info("workload registered on fleet",
		"fingerprint", co.fpHex, "workers", len(co.opt.Workers))
	return co.fpHex, nil
}

// uploadTo posts the trace to one worker with retry/backoff, returning
// the fingerprint the worker reports.
func (co *Coordinator) uploadTo(ctx context.Context, workerURL string, traceBytes []byte) (string, error) {
	delay := co.opt.Backoff
	var lastErr error
	for attempt := 0; attempt < co.opt.RegisterRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		fp, retryable, wait, err := co.uploadOnce(ctx, workerURL, traceBytes)
		if err == nil {
			return fp, nil
		}
		lastErr = err
		if !retryable {
			return "", err
		}
		if wait <= 0 {
			wait = delay
			delay = nextBackoff(delay)
		}
		if err := sleepCtx(ctx, wait); err != nil {
			return "", err
		}
	}
	return "", fmt.Errorf("upload not accepted after %d attempts: %w", co.opt.RegisterRetries, lastErr)
}

func (co *Coordinator) uploadOnce(ctx context.Context, workerURL string, traceBytes []byte) (fp string, retryable bool, wait time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		workerURL+"/v1/workloads", bytes.NewReader(traceBytes))
	if err != nil {
		return "", false, 0, err
	}
	resp, err := co.opt.HTTP.Do(req)
	if err != nil {
		return "", true, 0, err // connection-level: the worker may still be starting
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", true, 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		retryable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		return "", retryable, retryAfterHint(resp),
			fmt.Errorf("upload: %s: %s", resp.Status, errClassOf(body))
	}
	var ur serve.UploadResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		return "", false, 0, fmt.Errorf("upload: decoding response: %w", err)
	}
	if ur.Fingerprint == "" {
		return "", false, 0, fmt.Errorf("upload: response carries no fingerprint")
	}
	return ur.Fingerprint, false, 0, nil
}

// errClassOf extracts the machine-readable error class from a non-2xx
// body, falling back to the raw bytes for non-conforming servers.
func errClassOf(body []byte) string {
	var eb struct {
		Error string `json:"error"`
		Class string `json:"class"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Class != "" {
		return eb.Class
	}
	s := string(bytes.TrimSpace(body))
	if len(s) > 120 {
		s = s[:120] + "..."
	}
	return s
}

// retryAfterHint parses a whole-seconds Retry-After header (the only
// form subsetd emits); 0 means no hint.
func retryAfterHint(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// nextBackoff doubles a delay, capped at 1s.
func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > time.Second {
		d = time.Second
	}
	return d
}

// sleepCtx sleeps d or until ctx cancels.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// emit delivers one event to the OnEvent hook.
func (co *Coordinator) emit(ev Event) {
	if co.opt.OnEvent != nil {
		co.opt.OnEvent(ev)
	}
}
