package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bias"
	"repro/internal/bottom"
	"repro/internal/db"
	"repro/internal/httpx"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/report"
	"repro/internal/subsume"
)

// tinyWorld builds a minimal advisedBy task: students and professors
// co-publish exactly when advising.
func tinyWorld(t testing.TB) (*db.Database, []learn.Example, []learn.Example) {
	return sizedWorld(t, 4)
}

// sizedWorld is tinyWorld scaled to n advisor pairs (2n examples): the
// wire-savings measurement needs per-shard example sets large enough
// that protocol overhead is not dominated by HTTP framing noise.
func sizedWorld(t testing.TB, n int) (*db.Database, []learn.Example, []learn.Example) {
	t.Helper()
	s := db.NewSchema()
	s.MustAdd("student", "stud")
	s.MustAdd("professor", "prof")
	s.MustAdd("publication", "title", "person")
	d := db.New(s)
	var pos, neg []learn.Example
	for i := 0; i < n; i++ {
		st := fmt.Sprintf("s%02d", i)
		pr := fmt.Sprintf("p%02d", i)
		d.MustInsert("student", st)
		d.MustInsert("professor", pr)
		d.MustInsert("publication", fmt.Sprintf("t%02d", i), st)
		d.MustInsert("publication", fmt.Sprintf("t%02d", i), pr)
		pos = append(pos, logic.NewLiteral("advisedBy", logic.Const(st), logic.Const(pr)))
		neg = append(neg, logic.NewLiteral("advisedBy", logic.Const(st), logic.Const(fmt.Sprintf("p%02d", (i+1)%n))))
	}
	return d, pos, neg
}

func tinyEngine(t testing.TB, subSeed int64) *learn.CoverageEngine {
	t.Helper()
	d, _, _ := tinyWorld(t)
	return worldEngine(t, d, subSeed)
}

// worldEngine compiles the advisedBy bias over d and wraps it in a
// coverage engine — one call per worker (and one for the coordinator's
// bound engine), all fingerprint-identical by construction.
func worldEngine(t testing.TB, d *db.Database, subSeed int64) *learn.CoverageEngine {
	t.Helper()
	return newEngine(d, worldBias(t, d), subSeed)
}

func newEngine(d *db.Database, c *bias.Compiled, subSeed int64) *learn.CoverageEngine {
	builder := bottom.NewBuilder(d, c, bottom.Options{Depth: 1, Seed: 1})
	return learn.NewCoverage(builder, subsume.Options{Seed: subSeed})
}

// worldBias compiles the advisedBy bias over d.
func worldBias(t testing.TB, d *db.Database) *bias.Compiled {
	t.Helper()
	b := bias.MustParse(`
		advisedBy(T1,T2)
		student(T1)
		professor(T2)
		publication(T3,T1)
		publication(T3,T2)
		student(+)
		professor(+)
		publication(-,+)
		publication(+,-)
	`)
	c, err := b.Compile(d.Schema(), "advisedBy", 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestShardForDeterministic(t *testing.T) {
	keys := []string{"advisedBy(s00,p00)", "advisedBy(s01,p01)", "advisedBy(s02,p02)", "advisedBy(s03,p03)",
		"advisedBy(s00,p01)", "advisedBy(s01,p02)", "advisedBy(s02,p03)", "advisedBy(s03,p00)"}
	seen := map[int]bool{}
	for _, k := range keys {
		s := shardFor(k, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("shardFor(%q, 4) = %d out of range", k, s)
		}
		if again := shardFor(k, 4); again != s {
			t.Fatalf("shardFor(%q, 4) unstable: %d then %d", k, s, again)
		}
		if shardFor(k, 1) != 0 {
			t.Fatalf("shardFor(%q, 1) != 0", k)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Errorf("8 keys all landed on the same shard of 4 — suspicious distribution: %v", seen)
	}
}

func TestEngineFingerprint(t *testing.T) {
	e1 := tinyEngine(t, 1)
	e2 := tinyEngine(t, 1)
	fp := EngineFingerprint(e1, "schema-v1", "bias-text")
	if got := EngineFingerprint(e2, "schema-v1", "bias-text"); got != fp {
		t.Errorf("identical configs fingerprint differently: %s vs %s", fp, got)
	}
	if len(fp) != 32 {
		t.Errorf("fingerprint length %d, want 32", len(fp))
	}
	if got := EngineFingerprint(e1, "schema-v2", "bias-text"); got == fp {
		t.Error("schema change did not move the fingerprint")
	}
	if got := EngineFingerprint(e1, "schema-v1", "other-bias"); got == fp {
		t.Error("bias change did not move the fingerprint")
	}
	eSeed := tinyEngine(t, 7)
	if got := EngineFingerprint(eSeed, "schema-v1", "bias-text"); got == fp {
		t.Error("subsumption seed change did not move the fingerprint")
	}
}

func TestWorkerEndpoints(t *testing.T) {
	engine := tinyEngine(t, 1)
	w := NewWorker("w1", engine, "deadbeef", WorkerOptions{})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	clause := "advisedBy(A,B) :- publication(C,A), publication(C,B)"
	req := BatchCoverageRequest{Clauses: []string{clause}, Examples: []string{"advisedBy(s00,p00)", "advisedBy(s00,p01)"}}

	t.Run("coverage-roundtrip", func(t *testing.T) {
		resp, body := postBatch(t, srv.URL, req, "deadbeef")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var br BatchCoverageResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		got, ok := UnpackBits(br.Covered[0], 2)
		if !ok || !got[0] || got[1] {
			t.Errorf("verdicts %v, want [true false]", got)
		}
	})

	t.Run("fingerprint-mismatch-409", func(t *testing.T) {
		resp, body := postBatch(t, srv.URL, req, "00000000")
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("status %d, want 409: %s", resp.StatusCode, body)
		}
		if detail, ok := httpx.DecodeError(body); !ok || detail.Code != httpx.ErrCodeConfigMismatch {
			t.Errorf("error body %s, want code %s", body, httpx.ErrCodeConfigMismatch)
		}
	})

	t.Run("no-fingerprint-accepted", func(t *testing.T) {
		resp, body := postBatch(t, srv.URL, req, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status %d, want 200 when the coordinator sends no fingerprint: %s", resp.StatusCode, body)
		}
	})

	t.Run("batch-too-large-413", func(t *testing.T) {
		big := BatchCoverageRequest{Clauses: []string{clause}, Examples: make([]string, MaxBatchExamples+1)}
		for i := range big.Examples {
			big.Examples[i] = "advisedBy(s00,p00)"
		}
		resp, body := postBatch(t, srv.URL, big, "deadbeef")
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413: %s", resp.StatusCode, body)
		}
	})

	t.Run("bad-clause-400", func(t *testing.T) {
		resp, body := postBatch(t, srv.URL, BatchCoverageRequest{Clauses: []string{"not a clause(("}, Examples: []string{"advisedBy(s00,p00)"}}, "deadbeef")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400: %s", resp.StatusCode, body)
		}
	})

	t.Run("v1-route-gone-404", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/v1/coverage", "application/json",
			strings.NewReader(`{"clause":"advisedBy(A,B) :- student(A)","examples":["advisedBy(s00,p00)"]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("/v1/coverage status %d, want 404: wire v1 is gone", resp.StatusCode)
		}
	})

	t.Run("healthz-and-readyz", func(t *testing.T) {
		for _, path := range []string{"/healthz", "/readyz"} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s status %d, want 200", path, resp.StatusCode)
			}
		}
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var ready struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ready.Fingerprint != "deadbeef" {
			t.Errorf("readyz fingerprint %q, want %q", ready.Fingerprint, "deadbeef")
		}
	})

	t.Run("draining-readyz-503", func(t *testing.T) {
		w.draining.Store(true)
		defer w.draining.Store(false)
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining readyz status %d, want 503", resp.StatusCode)
		}
	})
}

// stubWorker answers coverage RPCs with canned all-false verdicts via
// fn (nil fn = default behavior), counting requests: every batch gets
// zero bitsets.
func stubWorker(fn func(w http.ResponseWriter, r *http.Request, calls int64) bool) (*httptest.Server, *atomic.Int64) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if fn != nil && fn(w, r, n) {
			return
		}
		var req BatchCoverageRequest
		json.NewDecoder(r.Body).Decode(&req)
		covered := make([][]byte, len(req.Clauses))
		for i := range covered {
			covered[i] = PackBits(make([]bool, len(req.Examples)))
		}
		httpx.WriteJSON(w, http.StatusOK, BatchCoverageResponse{Covered: covered})
	}))
	return srv, &calls
}

// countOne is CountMany for one clause on the coordinator's bound
// engine: the engine screens its store, the coordinator computes the
// misses.
func countOne(co *Coordinator, c *logic.Clause, examples []learn.Example) (int, error) {
	ns, err := co.engine.CountMany(context.Background(), []*logic.Clause{c}, examples)
	if err != nil {
		return 0, err
	}
	return ns[0], nil
}

func bindCoordinator(t *testing.T, opts Options) (*Coordinator, *learn.CoverageEngine) {
	t.Helper()
	co, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	engine := tinyEngine(t, 1)
	co.Bind(engine)
	t.Cleanup(co.Close)
	return co, engine
}

func TestCoordinatorMemoizesVerdicts(t *testing.T) {
	srv, calls := stubWorker(nil)
	defer srv.Close()
	co, _ := bindCoordinator(t, Options{Shards: [][]string{{srv.URL}}})

	c := logic.MustParseClause("advisedBy(A,B) :- publication(C,A), publication(C,B)")
	_, pos, _ := tinyWorld(t)
	n, err := countOne(co, c, pos)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("stub answers all-false; count %d, want 0", n)
	}
	first := calls.Load()
	if first == 0 {
		t.Fatal("no RPC issued on a cold memo")
	}
	if _, err := countOne(co, c, pos); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != first {
		t.Errorf("second identical count issued %d extra RPCs; every verdict should be memoized", calls.Load()-first)
	}
}

func TestCoordinatorHonorsRetryAfter(t *testing.T) {
	srv, calls := stubWorker(func(w http.ResponseWriter, r *http.Request, n int64) bool {
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			httpx.WriteJSON(w, http.StatusServiceUnavailable, httpx.ErrorBody{Error: httpx.ErrorDetail{Code: httpx.ErrCodeOverloaded, Message: "shedding"}})
			return true
		}
		return false
	})
	defer srv.Close()
	co, _ := bindCoordinator(t, Options{Shards: [][]string{{srv.URL}}, Retries: 2})

	c := logic.MustParseClause("advisedBy(A,B) :- student(A)")
	_, pos, _ := tinyWorld(t)
	start := time.Now()
	if _, err := countOne(co, c, pos[:1]); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("retry after a 503 with Retry-After: 1 waited only %s", elapsed)
	}
	if calls.Load() != 2 {
		t.Errorf("%d RPCs, want 2 (one shed, one retry)", calls.Load())
	}
}

// TestCoordinatorConfigMismatchIsFatal: a 409 means the fleet was built
// for another run — fatal on the first answer, with no retry and no
// local fallback.
func TestCoordinatorConfigMismatchIsFatal(t *testing.T) {
	srv, calls := stubWorker(func(w http.ResponseWriter, r *http.Request, n int64) bool {
		httpx.WriteJSON(w, http.StatusConflict, httpx.ErrorBody{Error: httpx.ErrorDetail{Code: httpx.ErrCodeConfigMismatch, Message: "wrong task"}})
		return true
	})
	defer srv.Close()
	// Two shards: a fatal answer must abort without retrying or falling
	// back locally.
	co, engine := bindCoordinator(t, Options{Shards: [][]string{{srv.URL}, {srv.URL}}, Retries: 3})
	rep := report.New()
	engine.SetReport(rep)

	c := logic.MustParseClause("advisedBy(A,B) :- student(A)")
	_, pos, _ := tinyWorld(t)
	_, err := countOne(co, c, pos)
	if err == nil {
		t.Fatal("config mismatch did not abort the count")
	}
	if !isFatal(err) {
		t.Errorf("config mismatch error is not fatal: %v", err)
	}
	if !strings.Contains(err.Error(), "config mismatch") {
		t.Errorf("error does not name the cause: %v", err)
	}
	if n := calls.Load(); n > 2 {
		t.Errorf("%d RPCs over 2 shards: a fatal answer walks no retry ladder", n)
	}
	if n := rep.Count(report.ShardRetried) + rep.Count(report.ShardFellBackLocal); n != 0 {
		t.Errorf("fatal answer recorded %d recoveries: %s", n, rep.Summary())
	}
}

func TestCoordinatorLocalFallback(t *testing.T) {
	srv, _ := stubWorker(func(w http.ResponseWriter, r *http.Request, n int64) bool {
		httpx.WriteJSON(w, http.StatusInternalServerError, httpx.ErrorBody{Error: httpx.ErrorDetail{Code: httpx.ErrCodeInternal, Message: "crashed"}})
		return true
	})
	defer srv.Close()
	co, engine := bindCoordinator(t, Options{Shards: [][]string{{srv.URL}}, Retries: 1})

	c := logic.MustParseClause("advisedBy(A,B) :- publication(C,A), publication(C,B)")
	_, pos, neg := tinyWorld(t)
	n, err := countOne(co, c, append(append([]learn.Example(nil), pos...), neg...))
	if err != nil {
		t.Fatalf("local fallback should have absorbed the dead worker: %v", err)
	}
	if n != len(pos) {
		t.Errorf("fallback count %d, want %d (the co-publication clause covers exactly the positives)", n, len(pos))
	}
	_ = engine
}

func TestCoordinatorShardsLost(t *testing.T) {
	srv, _ := stubWorker(func(w http.ResponseWriter, r *http.Request, n int64) bool {
		httpx.WriteJSON(w, http.StatusInternalServerError, httpx.ErrorBody{Error: httpx.ErrorDetail{Code: httpx.ErrCodeInternal, Message: "crashed"}})
		return true
	})
	defer srv.Close()
	co, _ := bindCoordinator(t, Options{
		Shards:               [][]string{{srv.URL}},
		Retries:              1,
		DisableLocalFallback: true,
	})

	c := logic.MustParseClause("advisedBy(A,B) :- student(A)")
	_, pos, _ := tinyWorld(t)
	_, err := countOne(co, c, pos)
	if err == nil {
		t.Fatal("total loss with fallback disabled must error")
	}
	if !errors.Is(err, ErrShardsLost) {
		t.Errorf("error %v does not wrap ErrShardsLost", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("ErrShardsLost must look like a cancellation to the learner, got %v", err)
	}
}

// crashedWorker is a stub whose every answer is a 500: a replica that is
// gone for the whole run.
func crashedWorker() (*httptest.Server, *atomic.Int64) {
	return stubWorker(func(w http.ResponseWriter, r *http.Request, n int64) bool {
		httpx.WriteJSON(w, http.StatusInternalServerError, httpx.ErrorBody{Error: httpx.ErrorDetail{Code: httpx.ErrCodeInternal, Message: "crashed"}})
		return true
	})
}

// TestCoordinatorStartsAtLastAnsweringReplica: a shard whose first
// replica is dead costs one failed RPC on the first count, whose retry
// lands on the live replica; every later count starts there.
func TestCoordinatorStartsAtLastAnsweringReplica(t *testing.T) {
	dead, deadCalls := crashedWorker()
	defer dead.Close()
	live, _ := stubWorker(nil)
	defer live.Close()
	co, engine := bindCoordinator(t, Options{Shards: [][]string{{dead.URL, live.URL}}})
	rep := report.New()
	engine.SetReport(rep)

	_, pos, _ := tinyWorld(t)
	for i, body := range []string{"student(A)", "professor(B)", "publication(C,A)", "publication(C,B)"} {
		if _, err := countOne(co, logic.MustParseClause("advisedBy(A,B) :- "+body), pos); err != nil {
			t.Fatalf("count %d: %v", i, err)
		}
		if n := deadCalls.Load(); n != 1 {
			t.Fatalf("after count %d the dead replica has had %d RPCs, want exactly 1", i, n)
		}
	}
	if n := rep.Count(report.ShardRetried); n != 1 {
		t.Errorf("%d ShardRetried events, want 1: %s", n, rep.Summary())
	}
	if n := rep.Count(report.ShardFellBackLocal); n != 0 {
		t.Errorf("a shard with a live replica fell back locally: %s", rep.Summary())
	}
}

// TestCoordinatorLostShardStaysLocal: once a count runs out of attempts,
// the shard resolves in-process for the rest of the run — no further RPC
// to the dead replica, one recorded fallback, exact counts throughout.
func TestCoordinatorLostShardStaysLocal(t *testing.T) {
	dead, calls := crashedWorker()
	defer dead.Close()
	co, engine := bindCoordinator(t, Options{Shards: [][]string{{dead.URL}}, Retries: 1})
	rep := report.New()
	engine.SetReport(rep)

	truth := tinyEngine(t, 1)
	_, pos, neg := tinyWorld(t)
	all := append(append([]learn.Example(nil), pos...), neg...)
	for _, body := range []string{"student(A)", "professor(B)", "publication(C,A)", "publication(C,A), publication(C,B)"} {
		c := logic.MustParseClause("advisedBy(A,B) :- " + body)
		got, err := countOne(co, c, all)
		if err != nil {
			t.Fatalf("%v: local fallback should have absorbed the dead worker: %v", c, err)
		}
		want, err := countLocal(truth, c, all)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: count %d, want %d", c, got, want)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("dead replica got %d RPCs over four counts, want 1", n)
	}
	if n := rep.Count(report.ShardFellBackLocal); n != 1 {
		t.Errorf("%d ShardFellBackLocal events over four counts, want 1: %s", n, rep.Summary())
	}
}

// TestCoordinatorConcurrentCountsFallBackOnce: counts racing on a dead
// shard all get exact answers, and the shard's switch to in-process
// computation is recorded once.
func TestCoordinatorConcurrentCountsFallBackOnce(t *testing.T) {
	dead, _ := crashedWorker()
	defer dead.Close()
	co, engine := bindCoordinator(t, Options{Shards: [][]string{{dead.URL}}, Retries: 1})
	rep := report.New()
	engine.SetReport(rep)

	truth := tinyEngine(t, 1)
	_, pos, neg := tinyWorld(t)
	all := append(append([]learn.Example(nil), pos...), neg...)
	var wg sync.WaitGroup
	for _, body := range []string{"student(A)", "professor(B)", "publication(C,A)", "publication(C,B)", "publication(C,A), publication(C,B)", "student(A), professor(B)"} {
		c := logic.MustParseClause("advisedBy(A,B) :- " + body)
		want, err := countLocal(truth, c, all)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := countOne(co, c, all); err != nil || got != want {
				t.Errorf("%v: count %d (err %v), want %d", c, got, err, want)
			}
		}()
	}
	wg.Wait()
	if n := rep.Count(report.ShardFellBackLocal); n != 1 {
		t.Errorf("%d ShardFellBackLocal events, want 1: %s", n, rep.Summary())
	}
}
