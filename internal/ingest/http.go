package ingest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/httpx"
)

// Server is the ingest subsystem's HTTP surface, built on the shared
// internal/httpx substrate (structured error envelopes, semaphore
// admission, ctx-error → status mapping):
//
//	POST /ingest         one JSON Batch, committed atomically
//	POST /ingest/stream  NDJSON Mutations, committed in bounded batches
//	GET  /version        current data version
//
// An optional OnCommit hook observes every committed batch in commit
// order — the seam the live learner (cmd/ingest) hangs incremental
// theory repair on.
type Server struct {
	ing *Ingestor
	lim *httpx.Limiter
	// OnCommit, when non-nil, runs synchronously after each commit while
	// the ingestor's commit lock is still held (Ingestor.ApplyAndNotify),
	// before the HTTP response. Even with concurrent requests in flight,
	// hooks therefore observe strictly increasing versions against a
	// database holding exactly the batches up to their own.
	OnCommit func(Commit)
	// StreamBatch bounds mutations per streamed commit (<= 0 → 512).
	StreamBatch int
}

// NewServer returns a server over ing admitting up to maxInflight
// concurrent requests (<= 0 → 64).
func NewServer(ing *Ingestor, maxInflight int) *Server {
	return &Server{ing: ing, lim: httpx.NewLimiter(maxInflight)}
}

// Handler returns the server's routed handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.admit(s.handleBatch))
	mux.HandleFunc("POST /ingest/stream", s.admit(s.handleStream))
	mux.HandleFunc("GET /version", s.handleVersion)
	return mux
}

func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.lim.Acquire(r.Context()) {
			httpx.Fail(w, http.StatusServiceUnavailable, httpx.ErrCodeOverloaded,
				fmt.Errorf("ingest: %d requests in flight", s.lim.Cap()))
			return
		}
		defer s.lim.Release()
		h(w, r)
	}
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string]uint64{"version": s.ing.Version()})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var b Batch
	if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
		httpx.Fail(w, http.StatusBadRequest, httpx.ErrCodeBadRequest,
			fmt.Errorf("ingest: decode batch: %w", err))
		return
	}
	c, err := s.ing.ApplyAndNotify(r.Context(), b, s.OnCommit)
	if err != nil {
		s.failApply(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, c)
}

// streamResponse summarizes one NDJSON streaming request.
type streamResponse struct {
	Batches  int      `json:"batches"`
	Inserted int      `json:"inserted"`
	Deleted  int      `json:"deleted"`
	Versions []uint64 `json:"versions"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	st := s.ing.NewStream(s.StreamBatch)
	st.OnCommit = s.OnCommit
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var m Mutation
		if err := json.Unmarshal([]byte(text), &m); err != nil {
			httpx.Fail(w, http.StatusBadRequest, httpx.ErrCodeBadRequest,
				fmt.Errorf("ingest: stream line %d: %w", line, err))
			return
		}
		if err := st.Add(r.Context(), m); err != nil {
			s.failApply(w, err)
			return
		}
	}
	if err := sc.Err(); err != nil {
		httpx.Fail(w, http.StatusBadRequest, httpx.ErrCodeBadRequest,
			fmt.Errorf("ingest: read stream: %w", err))
		return
	}
	if err := st.Flush(r.Context()); err != nil {
		s.failApply(w, err)
		return
	}
	resp := streamResponse{Batches: len(st.Commits)}
	for _, c := range st.Commits {
		resp.Inserted += c.Inserted
		resp.Deleted += c.Deleted
		resp.Versions = append(resp.Versions, c.Version)
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// failApply maps an Apply error onto the shared status conventions:
// context errors to 504/503, everything else (validation) to 400.
func (s *Server) failApply(w http.ResponseWriter, err error) {
	if status, code, ok := httpx.CtxStatus(err); ok {
		httpx.Fail(w, status, code, err)
		return
	}
	httpx.Fail(w, http.StatusBadRequest, httpx.ErrCodeBadRequest, err)
}
