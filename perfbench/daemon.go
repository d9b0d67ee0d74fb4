package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/serve"
)

// daemon is one in-process subsetd: serve.New behind a loopback
// listener, configured as cmd/subsetd configures it with its default
// flags. An empty cacheDir runs it without a result cache.
type daemon struct {
	app   *serve.Server
	cache *cache.Cache
	srv   *http.Server
	done  chan error
	url   string
}

func startDaemon(ctx context.Context, cacheDir string) (*daemon, error) {
	c, err := cache.FromFlags(cacheDir, 0)
	if err != nil {
		return nil, err
	}
	app := serve.New(serve.Options{Cache: c, Run: obs.NewRun("subsetd")})
	if _, err := app.RestoreWorkloads(ctx); err != nil {
		app.Drain(ctx)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		app.Drain(ctx)
		return nil, err
	}
	d := &daemon{
		app:   app,
		cache: c,
		srv:   &http.Server{Handler: app.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done:  make(chan error, 1),
		url:   "http://" + ln.Addr().String(),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon as subsetd does on SIGTERM and waits for its
// listener goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := d.app.Drain(ctx)
	serr := d.srv.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	return errors.Join(derr, serr)
}

// request sends one HTTP request and reads the whole answer.
func request(ctx context.Context, cl *http.Client, method, url string, body []byte, traceID string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if traceID != "" {
		req.Header.Set(serve.TraceHeader, traceID)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// upload registers a trace and returns its fingerprint.
func upload(ctx context.Context, cl *http.Client, url string, data []byte) (string, error) {
	status, body, err := request(ctx, cl, http.MethodPost, url+"/v1/workloads", data, "")
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("upload: status %d: %s", status, body)
	}
	var ur serve.UploadResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		return "", fmt.Errorf("upload: %w", err)
	}
	if ur.Degraded {
		return "", fmt.Errorf("upload: generated trace was repaired: %v", ur.Diagnostics)
	}
	return ur.Fingerprint, nil
}
