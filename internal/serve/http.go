package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/model"
)

// ServerOptions configures the HTTP layer.
type ServerOptions struct {
	// MaxConcurrent bounds in-flight predict requests across all models;
	// <=0 selects 64. Excess requests queue on the semaphore and respect
	// their context. (Per-model budgets — Options.ModelConcurrency — shed
	// instead of queueing; this global bound protects the process.)
	MaxConcurrent int
	// MaxBatch bounds examples per predict request; <=0 selects 4096.
	// Larger batches are rejected with 413 before any work is done.
	MaxBatch int
	// RequestTimeout bounds one predict request end to end; <=0 selects
	// 30s. The deadline threads through the engine, so a slow
	// subsumption search is interrupted mid-test, not at a boundary.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown; <=0 selects 10s.
	DrainTimeout time.Duration
	// Reload, when non-nil, backs POST /admin/reload (typically a closure
	// over ReloadDir). Absent, the endpoint answers 501.
	Reload func(ctx context.Context) (*ReloadReport, error)
	// Metrics, when non-nil, backs the /metrics endpoint and receives
	// request counters.
	Metrics *metrics.Collector
}

func (o ServerOptions) normalized() ServerOptions {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 64
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4096
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	return o
}

// Server serves a registry over HTTP/JSON. The shared middleware —
// structured error bodies, the global concurrency semaphore, graceful
// drain — comes from internal/httpx, the substrate this layer and the
// shard-worker service are both built on.
type Server struct {
	reg  *Registry
	opts ServerOptions
	lim  *httpx.Limiter
	mux  *http.ServeMux

	// draining flips when graceful shutdown begins; reloading counts
	// in-flight reload sweeps. Both gate readiness: /readyz answers 503
	// while either is set, so load balancers stop routing before the
	// listener actually closes, and health checks see model rebinds.
	draining  atomic.Bool
	reloading atomic.Int32
}

// NewServer wires the registry's handlers onto one mux: liveness and
// readiness, model listing and inspection, prediction, hot reload, a
// JSON metrics snapshot, and the standard pprof endpoints (same mux,
// same port — one process, one observability surface).
func NewServer(reg *Registry, opts ServerOptions) *Server {
	opts = opts.normalized()
	s := &Server{
		reg:  reg,
		opts: opts,
		lim:  httpx.NewLimiter(opts.MaxConcurrent),
		mux:  http.NewServeMux(),
	}
	httpx.MountAdmin(s.mux, opts.Metrics, s.handleHealth, s.handleReady)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /v1/models/{name}", s.handleModel)
	s.mux.HandleFunc("POST /v1/models/{name}/predict", s.handlePredict)
	s.mux.HandleFunc("POST /admin/reload", s.handleReload)
	return s
}

// Handler returns the server's mux, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts on ln until ctx is cancelled, then drains gracefully:
// readiness flips to 503 the moment the drain begins, and in-flight
// requests get DrainTimeout to finish. A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return httpx.Serve(ctx, ln, s.mux, s.opts.DrainTimeout, func() { s.draining.Store(true) })
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// fail writes a structured error and counts it.
func (s *Server) fail(w http.ResponseWriter, status int, code string, err error) {
	s.opts.Metrics.Inc(metrics.ServeErrors)
	httpx.Fail(w, status, code, err)
}

// handleHealth is liveness: the process is up and can answer HTTP. It
// stays 200 through reloads and drain — only process death fails it.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": s.reg.Len()})
}

// modelBindState is one model's entry in the readiness report.
type modelBindState struct {
	Name     string `json:"name"`
	Version  int    `json:"version"`
	Clauses  int    `json:"clauses"`
	Degraded bool   `json:"degraded,omitempty"`
	InFlight int    `json:"in_flight"`
}

// handleReady is readiness: 200 only when the server can take traffic.
// It fails (503 + Retry-After) while draining or while a reload sweep
// is rebinding models, and always reports per-model bind state so
// orchestrators see what is actually being served.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	states := make([]modelBindState, 0, s.reg.Len())
	for _, name := range s.reg.Names() {
		m, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		states = append(states, modelBindState{
			Name:     m.Name(),
			Version:  m.Version(),
			Clauses:  m.def.Len(),
			Degraded: m.art.Degraded,
			InFlight: m.InFlight(),
		})
	}
	body := map[string]any{"models": states}
	switch {
	case s.draining.Load():
		body["status"] = "draining"
		w.Header().Set("Retry-After", "1")
		httpx.WriteJSON(w, http.StatusServiceUnavailable, body)
	case s.reloading.Load() > 0:
		body["status"] = "reloading"
		w.Header().Set("Retry-After", "1")
		httpx.WriteJSON(w, http.StatusServiceUnavailable, body)
	default:
		body["status"] = "ready"
		httpx.WriteJSON(w, http.StatusOK, body)
	}
}

// modelInfo is the public description of one bound model.
type modelInfo struct {
	Name        string   `json:"name"`
	Version     int      `json:"version"`
	Target      string   `json:"target"`
	TargetAttrs []string `json:"target_attrs"`
	Clauses     int      `json:"clauses"`
	Theory      string   `json:"theory,omitempty"`
	Degraded    bool     `json:"degraded,omitempty"`
	InFlight    int      `json:"in_flight"`
}

func (s *Server) info(m *Model, full bool) modelInfo {
	info := modelInfo{
		Name:        m.Name(),
		Version:     m.Version(),
		Target:      m.art.Target,
		TargetAttrs: m.art.TargetAttrs,
		Clauses:     m.def.Len(),
		Degraded:    m.art.Degraded,
		InFlight:    m.InFlight(),
	}
	if full {
		info.Theory = m.art.Theory
	}
	return info
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	out := make([]modelInfo, 0, s.reg.Len())
	for _, name := range s.reg.Names() {
		m, _ := s.reg.Get(name)
		out = append(out, s.info(m, false))
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	m, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		s.fail(w, http.StatusNotFound, httpx.ErrCodeModelNotFound, fmt.Errorf("no such model %q", r.PathValue("name")))
		return
	}
	httpx.WriteJSON(w, http.StatusOK, s.info(m, true))
}

// handleReload triggers a hot model reload (ReloadDir via the
// configured hook) and reports what changed. Serving never pauses:
// requests already on a replaced version finish on it — but readiness
// dips while the sweep runs, so rolling deploys wait for the rebind to
// finish before routing fresh traffic.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.opts.Reload == nil {
		s.fail(w, http.StatusNotImplemented, httpx.ErrCodeUnsupported, errors.New("no reload hook configured"))
		return
	}
	s.reloading.Add(1)
	rep, err := s.opts.Reload(r.Context())
	s.reloading.Add(-1)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, httpx.ErrCodeReload, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, rep)
}

// predictRequest carries one batch: tuples as attribute-value lists
// and/or examples as ground literals ("advisedby(p1,p2)"). Order is
// preserved in the response — tuples first, then examples.
type predictRequest struct {
	Tuples   [][]string `json:"tuples,omitempty"`
	Examples []string   `json:"examples,omitempty"`
}

type prediction struct {
	Input   string `json:"input"`
	Covered bool   `json:"covered"`
	// Version is the model version that served this example (one per
	// request: a request resolves one version).
	Version int `json:"version"`
}

type predictResponse struct {
	Model       string       `json:"model"`
	Predictions []prediction `json:"predictions"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.opts.Metrics.Inc(metrics.ServeRequests)
	name := r.PathValue("name")
	m, ok := s.reg.Get(name)
	if !ok {
		s.fail(w, http.StatusNotFound, httpx.ErrCodeModelNotFound, fmt.Errorf("no such model %q", name))
		return
	}
	var req predictRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	var examples []Example
	if err == nil {
		if len(req.Tuples)+len(req.Examples) == 0 {
			err = errors.New("empty request: provide tuples and/or examples")
		} else if n := len(req.Tuples) + len(req.Examples); n > s.opts.MaxBatch {
			s.fail(w, http.StatusRequestEntityTooLarge, httpx.ErrCodeBatchTooLarge,
				fmt.Errorf("batch of %d examples exceeds the limit of %d; split the request", n, s.opts.MaxBatch))
			return
		} else {
			examples, err = m.decodeBatch(req)
		}
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, httpx.ErrCodeBadRequest, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	// Bounded concurrency: acquire a slot or give up when the caller
	// does. Queued requests keep their full deadline — the timeout
	// covers the work, the context covers the wait.
	if !s.lim.Acquire(ctx) {
		s.fail(w, http.StatusServiceUnavailable, httpx.ErrCodeOverloaded, fmt.Errorf("server at capacity: %w", ctx.Err()))
		return
	}
	defer s.lim.Release()

	verdicts, versions, err := s.reg.Predict(ctx, name, examples)
	if err != nil {
		status, code := http.StatusInternalServerError, httpx.ErrCodeInternal
		switch {
		case errors.Is(err, ErrNoModel):
			status, code = http.StatusNotFound, httpx.ErrCodeModelNotFound
		case errors.Is(err, ErrBadExample):
			status, code = http.StatusBadRequest, httpx.ErrCodeBadRequest
		case errors.Is(err, ErrOverloaded):
			status, code = http.StatusServiceUnavailable, httpx.ErrCodeOverloaded
		default:
			if st, c, ok := httpx.CtxStatus(err); ok {
				status, code = st, c
			}
		}
		s.fail(w, status, code, err)
		return
	}
	resp := predictResponse{Model: name, Predictions: make([]prediction, len(examples))}
	for i, e := range examples {
		resp.Predictions[i] = prediction{Input: e.String(), Covered: verdicts[i], Version: versions[i]}
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// decodeBatch parses a predict request into ground literals, tuples
// first; a parse error carries the offending input. Registry.Predict
// validates the literals against the version that serves them.
func (m *Model) decodeBatch(req predictRequest) ([]Example, error) {
	out := make([]Example, 0, len(req.Tuples)+len(req.Examples))
	for _, vals := range req.Tuples {
		out = append(out, m.TupleExample(vals))
	}
	for _, s := range req.Examples {
		e, err := model.ParseExample(s)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
