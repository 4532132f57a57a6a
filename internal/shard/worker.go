package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/httpx"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/model"
)

// WorkerOptions configures a shard-worker service.
type WorkerOptions struct {
	// MaxConcurrent bounds in-flight coverage requests; <=0 selects the
	// httpx limiter default (64).
	MaxConcurrent int
	// RequestTimeout bounds one coverage request's work; <=0 selects 30s.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown; <=0 selects the httpx
	// default (10s).
	DrainTimeout time.Duration
	// Metrics, when non-nil, receives shard.worker.* gauges and the
	// engine's counters for the /metrics endpoint.
	Metrics *metrics.Collector
}

func (o WorkerOptions) normalized() WorkerOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	return o
}

// Bounds on a worker's parse caches. A long-lived worker sees a new
// multi-KB clause text for every candidate any run ever sends it; past
// the bound a cache is dropped wholesale and refills from the traffic at
// hand. Constants, not options: the caches only save parsing.
const (
	maxCachedClauses  = 4096
	maxCachedExamples = 1 << 16
)

// Worker is one shard-worker service: a coverage engine behind the
// httpx substrate. It answers POST /v2/coverage (a whole candidate
// frontier over an inline example set) with pure per-example verdicts
// as packed bitsets — every example resolved, no count limit; see the
// package comment's merge contract — plus GET /healthz
// (liveness: the process is up), GET /readyz (readiness for operators
// and load balancers: not draining and not mid-preload; reports
// fingerprint and cache heat), GET /metrics and
// /debug/pprof/ (httpx.MountAdmin).
type Worker struct {
	id     string
	engine *learn.CoverageEngine
	fp     string
	opts   WorkerOptions
	lim    *httpx.Limiter
	mux    *http.ServeMux

	draining   atomic.Bool
	preloading atomic.Bool
	preloaded  atomic.Int64

	// Request-derived state: these parse caches (bounded), and the
	// engine's clause store, which grows by a record, a pinned clause
	// pointer and one verdict per (clause, example) pair for the life of
	// the process. All of it is pure, so a restarted worker answers the
	// next request as it is.
	mu       sync.Mutex
	clauses  map[string]*logic.Clause
	examples map[string]learn.Example
}

// NewWorker wraps engine as shard worker id. The engine must be built
// from the same task and options as the coordinator's (fingerprint fp
// proves it).
func NewWorker(id string, engine *learn.CoverageEngine, fp string, opts WorkerOptions) *Worker {
	w := &Worker{
		id:       id,
		engine:   engine,
		fp:       fp,
		opts:     opts.normalized(),
		lim:      httpx.NewLimiter(opts.MaxConcurrent),
		clauses:  make(map[string]*logic.Clause),
		examples: make(map[string]learn.Example),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/coverage", w.handleBatchCoverage)
	httpx.MountAdmin(mux, w.opts.Metrics, w.handleHealth, w.handleReady)
	w.mux = mux
	return w
}

// Handler returns the worker's routed handler (for tests that mount it
// on an httptest server).
func (w *Worker) Handler() http.Handler { return w.mux }

// Fingerprint returns the config fingerprint the worker was bound with.
func (w *Worker) Fingerprint() string { return w.fp }

// Serve accepts on ln until ctx is cancelled, then drains gracefully —
// /readyz flips to 503 the moment the drain begins, while in-flight
// coverage requests get DrainTimeout to finish.
func (w *Worker) Serve(ctx context.Context, ln net.Listener) error {
	return httpx.Serve(ctx, ln, w.mux, w.opts.DrainTimeout, func() { w.draining.Store(true) })
}

// BeginPreload flips the worker not-ready before Serve starts, so a
// load balancer probing /readyz during warm-up waits instead of routing
// cold-cache traffic. Preload clears it when the warm-up finishes.
func (w *Worker) BeginPreload() { w.preloading.Store(true) }

// Preload warms the worker's ground-BC cache for its owned example
// range: every example whose key hashes to shardIndex (out of
// shardCount; shardCount <= 1 or shardIndex < 0 warms everything) gets
// its bottom clause compiled before the first RPC arrives, converting
// first-request latency spikes into startup time. Returns how many BCs
// were built. Isolated per-example build failures are skipped — the
// request path reports them with full context if they are ever asked
// for — but a cancelled context aborts the warm-up.
func (w *Worker) Preload(ctx context.Context, examples []learn.Example, shardIndex, shardCount int) (int, error) {
	defer w.preloading.Store(false)
	n := 0
	for _, e := range examples {
		if shardCount > 1 && shardIndex >= 0 && shardFor(e.String(), shardCount) != shardIndex {
			continue
		}
		if _, err := w.engine.GroundBCCtx(ctx, e); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return n, cerr
			}
			continue
		}
		n++
		w.preloaded.Store(int64(n))
	}
	w.opts.Metrics.Add(metrics.ShardWorkerPreloadedBCs, int64(n))
	return n, nil
}

// parseClause resolves clause text to a *logic.Clause. The cache is a
// pure parse cache: the engine's store keys verdicts by canonical
// clause, so a re-parsed candidate would hit its record all the same —
// but only after parsing and canonicalizing a multi-KB text again on
// every round that repeats it (beam re-scoring, retried RPCs).
func (w *Worker) parseClause(s string) (*logic.Clause, error) {
	w.mu.Lock()
	c, ok := w.clauses[s]
	w.mu.Unlock()
	if ok {
		return c, nil
	}
	c, err := logic.ParseClause(s)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	if prev, ok := w.clauses[s]; ok {
		c = prev // first parse wins: one pointer per text
	} else {
		if len(w.clauses) >= maxCachedClauses {
			w.clauses = make(map[string]*logic.Clause)
		}
		w.clauses[s] = c
	}
	w.mu.Unlock()
	return c, nil
}

func (w *Worker) parseExample(s string) (learn.Example, error) {
	w.mu.Lock()
	e, ok := w.examples[s]
	w.mu.Unlock()
	if ok {
		return e, nil
	}
	e, err := model.ParseExample(s)
	if err != nil {
		return learn.Example{}, err
	}
	w.mu.Lock()
	if len(w.examples) >= maxCachedExamples {
		w.examples = make(map[string]learn.Example)
	}
	w.examples[s] = e
	w.mu.Unlock()
	return e, nil
}

// crashFault fires the worker's chaos faultpoints; they stand in for a
// worker that dies mid-request (the multi-process smoke test kills for
// real). The error answer is 500, which coordinators treat as a failed
// attempt — retry on the next replica, or fall back.
func (w *Worker) crashFault(rw http.ResponseWriter, r *http.Request) bool {
	if err := faultpoint.Inject(r.Context(), "shard.crash"); err != nil {
		httpx.Fail(rw, http.StatusInternalServerError, httpx.ErrCodeInternal, err)
		return false
	}
	if err := faultpoint.Inject(r.Context(), "shard.crash:"+w.id); err != nil {
		httpx.Fail(rw, http.StatusInternalServerError, httpx.ErrCodeInternal, err)
		return false
	}
	return true
}

// handleBatchCoverage answers wire v2: the shard's whole candidate
// frontier and its example set in one self-contained request, verdicts
// as one packed bitset per clause.
func (w *Worker) handleBatchCoverage(rw http.ResponseWriter, r *http.Request) {
	if !w.crashFault(rw, r) {
		return
	}
	if got := r.Header.Get(FingerprintHeader); got != "" && got != w.fp {
		httpx.Fail(rw, http.StatusConflict, httpx.ErrCodeConfigMismatch,
			fmt.Errorf("shard %s: coordinator fingerprint %s != worker %s (different task/options?)", w.id, got, w.fp))
		return
	}
	if !w.lim.Acquire(r.Context()) {
		httpx.Fail(rw, http.StatusServiceUnavailable, httpx.ErrCodeOverloaded,
			fmt.Errorf("shard %s: %d requests in flight", w.id, w.lim.Cap()))
		return
	}
	defer w.lim.Release()

	var req BatchCoverageRequest
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&req); err != nil {
		httpx.Fail(rw, http.StatusBadRequest, httpx.ErrCodeBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Clauses) == 0 {
		httpx.Fail(rw, http.StatusBadRequest, httpx.ErrCodeBadRequest, errors.New("batch has no clauses"))
		return
	}
	if len(req.Clauses) > MaxBatchClauses {
		httpx.Fail(rw, http.StatusRequestEntityTooLarge, httpx.ErrCodeBatchTooLarge,
			fmt.Errorf("%d clauses exceeds max batch %d", len(req.Clauses), MaxBatchClauses))
		return
	}

	if len(req.Examples) == 0 {
		httpx.Fail(rw, http.StatusBadRequest, httpx.ErrCodeBadRequest, errors.New("batch has no examples"))
		return
	}
	if len(req.Examples) > MaxBatchExamples {
		httpx.Fail(rw, http.StatusRequestEntityTooLarge, httpx.ErrCodeBatchTooLarge,
			fmt.Errorf("%d examples exceeds max batch %d", len(req.Examples), MaxBatchExamples))
		return
	}
	exs := make([]learn.Example, len(req.Examples))
	for i, es := range req.Examples {
		e, err := w.parseExample(es)
		if err != nil {
			httpx.Fail(rw, http.StatusBadRequest, httpx.ErrCodeBadRequest, fmt.Errorf("example %d: %w", i, err))
			return
		}
		exs[i] = e
	}

	clauses := make([]*logic.Clause, len(req.Clauses))
	for i, cs := range req.Clauses {
		c, err := w.parseClause(cs)
		if err != nil {
			httpx.Fail(rw, http.StatusBadRequest, httpx.ErrCodeBadRequest, fmt.Errorf("clause %d: %w", i, err))
			return
		}
		clauses[i] = c
	}

	ctx, cancel := context.WithTimeout(r.Context(), w.opts.RequestTimeout)
	defer cancel()

	verdicts, err := w.engine.ResolveLocal(ctx, clauses, exs)
	if err != nil {
		if status, code, ok := httpx.CtxStatus(err); ok {
			httpx.Fail(rw, status, code, err)
			return
		}
		httpx.Fail(rw, http.StatusInternalServerError, httpx.ErrCodeInternal, err)
		return
	}

	covered := make([][]byte, len(verdicts))
	for i, row := range verdicts {
		covered[i] = PackBits(row)
	}
	mc := w.opts.Metrics
	mc.Inc(metrics.ShardWorkerRequests)
	mc.Add(metrics.ShardWorkerExamples, int64(len(exs)))
	mc.Add(metrics.ShardWorkerBatchClauses, int64(len(clauses)))
	httpx.WriteJSON(rw, http.StatusOK, BatchCoverageResponse{Covered: covered})
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(rw, http.StatusOK, map[string]any{"status": "ok", "shard": w.id})
}

func (w *Worker) handleReady(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		httpx.Fail(rw, http.StatusServiceUnavailable, httpx.ErrCodeNotReady,
			errors.New("shard "+w.id+": draining"))
		return
	}
	if w.preloading.Load() {
		httpx.Fail(rw, http.StatusServiceUnavailable, httpx.ErrCodeNotReady,
			errors.New("shard "+w.id+": preloading ground BCs"))
		return
	}
	httpx.WriteJSON(rw, http.StatusOK, map[string]any{
		"status":      "ready",
		"shard":       w.id,
		"fingerprint": w.fp,
		"cached_bcs":  w.engine.CachedBCs(),
		"preloaded":   w.preloaded.Load(),
	})
}
