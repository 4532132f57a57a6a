// Package httpx is the shared HTTP service substrate extracted from the
// model-serving stack and reused by the shard-worker service: structured
// JSON error envelopes with stable machine-readable codes, a semaphore
// concurrency limiter whose overflow answer is 503 + Retry-After, the
// ctx-error → status mapping that turns a blown per-request deadline
// into 504, graceful listener drain, and the one admin surface
// (MountAdmin: liveness, readiness, metrics, pprof). It holds the
// conventions every HTTP surface of the system shares, so a client that
// understands one service's failure modes understands them all.
package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/metrics"
)

// Error codes carried in structured error bodies. Stable strings:
// clients branch on these, not on the human-readable message.
const (
	ErrCodeBadRequest     = "bad_request"
	ErrCodeModelNotFound  = "model_not_found"
	ErrCodeBatchTooLarge  = "batch_too_large"
	ErrCodeOverloaded     = "overloaded"
	ErrCodeTimeout        = "timeout"
	ErrCodeCancelled      = "cancelled"
	ErrCodeInternal       = "internal"
	ErrCodeReload         = "reload_failed"
	ErrCodeUnsupported    = "unsupported"
	ErrCodeNotReady       = "not_ready"
	ErrCodeConfigMismatch = "config_mismatch"
)

// ErrorBody is the structured error envelope every service writes:
// {"error":{"code":"overloaded","message":"..."}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the stable code and the human-readable message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// DecodeError extracts the structured error from a response body, for
// clients (the shard coordinator) that branch on the code.
func DecodeError(body []byte) (ErrorDetail, bool) {
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code == "" {
		return ErrorDetail{}, false
	}
	return eb.Error, true
}

// WriteJSON writes v as the response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Fail writes a structured error. Load-shedding statuses (503) carry
// Retry-After so well-behaved clients back off instead of hammering.
func Fail(w http.ResponseWriter, status int, code string, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: err.Error()}})
}

// CtxStatus maps a context error (possibly wrapped) to the shared
// status/code convention: deadline → 504 timeout, cancel → 503
// cancelled. ok is false for non-context errors.
func CtxStatus(err error) (status int, code string, ok bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, ErrCodeTimeout, true
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, ErrCodeCancelled, true
	}
	return 0, "", false
}

// Limiter bounds in-flight requests with a semaphore. Excess requests
// queue until their context gives up — the deadline covers the work,
// the context covers the wait — and shed with 503 + Retry-After.
type Limiter struct {
	sem chan struct{}
}

// NewLimiter returns a limiter admitting up to n concurrent holders;
// n <= 0 selects 64.
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		n = 64
	}
	return &Limiter{sem: make(chan struct{}, n)}
}

// Acquire claims a slot, waiting until ctx is done. The caller must
// Release iff Acquire returned true.
func (l *Limiter) Acquire(ctx context.Context) bool {
	select {
	case l.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// Release returns a slot claimed by Acquire.
func (l *Limiter) Release() { <-l.sem }

// Cap returns the limiter's slot count.
func (l *Limiter) Cap() int { return cap(l.sem) }

// MountAdmin registers the admin surface every daemon serves on its one
// port: GET /healthz (liveness), GET /readyz (readiness), GET /metrics
// (mc's snapshot as JSON; a nil collector snapshots empty) and the
// standard /debug/pprof/ handlers. health and ready may be nil: the
// default liveness answer is {"status":"ok"}, and a service with no
// not-ready state is ready whenever it is alive.
func MountAdmin(mux *http.ServeMux, mc *metrics.Collector, health, ready http.HandlerFunc) {
	if health == nil {
		health = func(w http.ResponseWriter, _ *http.Request) {
			WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}
	}
	if ready == nil {
		ready = health
	}
	mux.HandleFunc("GET /healthz", health)
	mux.HandleFunc("GET /readyz", ready)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, mc.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// readHeaderTimeout bounds how long an accepted connection may take to
// finish its request headers before the server closes it.
const readHeaderTimeout = 10 * time.Second

// Serve accepts on ln until ctx is cancelled, then drains gracefully:
// in-flight requests get drainTimeout to finish before the listener's
// error is returned. A clean drain returns nil. onDrain, when non-nil,
// runs as soon as the drain begins (readiness endpoints flip to 503
// while in-flight work completes).
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drainTimeout time.Duration, onDrain func()) error {
	return serve(ctx, ln, h, drainTimeout, onDrain, readHeaderTimeout)
}

func serve(ctx context.Context, ln net.Listener, h http.Handler, drainTimeout time.Duration, onDrain func(), headerTimeout time.Duration) error {
	if drainTimeout <= 0 {
		drainTimeout = 10 * time.Second
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		if onDrain != nil {
			onDrain()
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(drainCtx); err != nil {
			return fmt.Errorf("httpx: drain: %w", err)
		}
		<-errCh // always http.ErrServerClosed after Shutdown
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
