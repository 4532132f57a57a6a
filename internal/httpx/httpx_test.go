package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestFailWritesEnvelopeAndRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	Fail(rec, http.StatusServiceUnavailable, ErrCodeOverloaded, errors.New("too busy"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	detail, ok := DecodeError(rec.Body.Bytes())
	if !ok || detail.Code != ErrCodeOverloaded || detail.Message != "too busy" {
		t.Errorf("decoded %+v ok=%v", detail, ok)
	}

	rec = httptest.NewRecorder()
	Fail(rec, http.StatusBadRequest, ErrCodeBadRequest, errors.New("nope"))
	if rec.Header().Get("Retry-After") != "" {
		t.Error("non-503 carries Retry-After")
	}
}

func TestDecodeErrorRejectsJunk(t *testing.T) {
	for _, body := range []string{"", "not json", `{"error":{}}`, `{"ok":true}`} {
		if _, ok := DecodeError([]byte(body)); ok {
			t.Errorf("DecodeError accepted %q", body)
		}
	}
}

func TestCtxStatus(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
		ok     bool
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout, ErrCodeTimeout, true},
		{context.Canceled, http.StatusServiceUnavailable, ErrCodeCancelled, true},
		{fmt.Errorf("wrapped: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, ErrCodeTimeout, true},
		{errors.New("other"), 0, "", false},
		{nil, 0, "", false},
	}
	for _, c := range cases {
		status, code, ok := CtxStatus(c.err)
		if status != c.status || code != c.code || ok != c.ok {
			t.Errorf("CtxStatus(%v) = (%d, %q, %v), want (%d, %q, %v)", c.err, status, code, ok, c.status, c.code, c.ok)
		}
	}
}

func TestLimiter(t *testing.T) {
	l := NewLimiter(0)
	if l.Cap() != 64 {
		t.Errorf("default cap %d, want 64", l.Cap())
	}
	l = NewLimiter(1)
	if !l.Acquire(context.Background()) {
		t.Fatal("first acquire failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if l.Acquire(ctx) {
		t.Fatal("second acquire on a full limiter should wait until ctx gives up")
	}
	l.Release()
	if !l.Acquire(context.Background()) {
		t.Fatal("acquire after release failed")
	}
	l.Release()
}

func TestServeDrainsGracefully(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	inflight := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		close(inflight)
		time.Sleep(50 * time.Millisecond)
		WriteJSON(w, http.StatusOK, map[string]string{"status": "done"})
	})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, ln, mux, time.Second, func() { close(drained) })
	}()

	// Start a request, begin the drain while it is in flight, and require
	// both a clean shutdown and a completed response.
	type result struct {
		status int
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			resCh <- result{0, err}
			return
		}
		resp.Body.Close()
		resCh <- result{resp.StatusCode, nil}
	}()
	<-inflight
	cancel()

	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("onDrain never ran")
	}
	r := <-resCh
	if r.err != nil || r.status != http.StatusOK {
		t.Errorf("in-flight request during drain: status=%d err=%v", r.status, r.err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v after a clean drain", err)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusTeapot, map[string]int{"n": 3})
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var out map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["n"] != 3 {
		t.Errorf("body %q err %v", rec.Body.String(), err)
	}
}

// TestMountAdmin: the one admin surface answers liveness, readiness,
// metrics and pprof; a service's own health and readiness handlers are
// served as given, a service without any is ready whenever it is alive,
// and a nil collector snapshots empty instead of failing.
func TestMountAdmin(t *testing.T) {
	get := func(mux *http.ServeMux, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	bare := http.NewServeMux()
	MountAdmin(bare, nil, nil, nil)
	for _, path := range []string{"/healthz", "/readyz"} {
		if rec := get(bare, path); rec.Code != http.StatusOK || rec.Body.String() != "{\"status\":\"ok\"}\n" {
			t.Errorf("default %s: %d %q", path, rec.Code, rec.Body.String())
		}
	}
	var snap metrics.Snapshot
	if rec := get(bare, "/metrics"); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &snap) != nil || snap.Counters == nil {
		t.Errorf("/metrics over a nil collector: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(bare, "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/healthz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz: %d, want 405", rec.Code)
	}

	mc := metrics.New()
	mc.Inc(metrics.LearnClauses)
	own := http.NewServeMux()
	MountAdmin(own, mc,
		func(w http.ResponseWriter, _ *http.Request) {
			WriteJSON(w, http.StatusOK, map[string]string{"shard": "s1"})
		},
		func(w http.ResponseWriter, _ *http.Request) {
			Fail(w, http.StatusServiceUnavailable, ErrCodeNotReady, errors.New("draining"))
		})
	if rec := get(own, "/healthz"); rec.Body.String() != "{\"shard\":\"s1\"}\n" {
		t.Errorf("own /healthz: %q", rec.Body.String())
	}
	if rec := get(own, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("own /readyz: %d", rec.Code)
	}
	if rec := get(own, "/metrics"); json.Unmarshal(rec.Body.Bytes(), &snap) != nil || snap.Counters["learn.clauses"] != 1 {
		t.Errorf("/metrics: %q", rec.Body.String())
	}
}

// TestServeClosesStalledHeader: a connection that never finishes its
// request headers is closed by the server once the header timeout
// passes, instead of being held open for as long as the peer likes.
func TestServeClosesStalledHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, http.NewServeMux(), time.Second, nil, 50*time.Millisecond) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil { // no terminating blank line
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// The server may answer 408 before closing; either way the read ends
	// in EOF long before the read deadline.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start), err)
	}
	cancel()
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}
