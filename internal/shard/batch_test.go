package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/model"
)

func TestPackUnpackBits(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65} {
		vs := make([]bool, n)
		for i := range vs {
			vs[i] = i%3 == 0
		}
		packed := PackBits(vs)
		if len(packed) != (n+7)/8 {
			t.Fatalf("n=%d: packed to %d bytes, want %d", n, len(packed), (n+7)/8)
		}
		back, ok := UnpackBits(packed, n)
		if !ok {
			t.Fatalf("n=%d: unpack rejected its own packing", n)
		}
		for i := range vs {
			if back[i] != vs[i] {
				t.Fatalf("n=%d bit %d: roundtrip %v, want %v", n, i, back[i], vs[i])
			}
		}
	}
	if _, ok := UnpackBits(make([]byte, 2), 20); ok {
		t.Error("unpack accepted a bitset short of its example count")
	}
	if _, ok := UnpackBits(make([]byte, 4), 20); ok {
		t.Error("unpack accepted a bitset longer than its example count")
	}
}

func TestDictFingerprint(t *testing.T) {
	a := DictFingerprint([]string{"advisedBy(s00,p00)", "advisedBy(s01,p01)"})
	if len(a) != 32 {
		t.Fatalf("fingerprint length %d, want 32", len(a))
	}
	if b := DictFingerprint([]string{"advisedBy(s00,p00)", "advisedBy(s01,p01)"}); b != a {
		t.Error("identical key lists fingerprint differently")
	}
	// Order matters: verdict bitsets align positionally.
	if b := DictFingerprint([]string{"advisedBy(s01,p01)", "advisedBy(s00,p00)"}); b == a {
		t.Error("reordered key list did not move the fingerprint")
	}
	// Length prefixes keep concatenation ambiguity out: ["ab","c"] vs ["a","bc"].
	if DictFingerprint([]string{"ab", "c"}) == DictFingerprint([]string{"a", "bc"}) {
		t.Error("length prefixing failed: concatenation-ambiguous lists collide")
	}
}

// postBatch posts a wire-v2 batch request with the given headers.
func postBatch(t *testing.T, url string, req BatchCoverageRequest, fp, proto string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v2/coverage", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if fp != "" {
		hreq.Header.Set(FingerprintHeader, fp)
	}
	if proto != "" {
		hreq.Header.Set(ProtoHeader, proto)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [1 << 16]byte
	n, _ := resp.Body.Read(buf[:])
	return resp, buf[:n]
}

func TestWorkerBatchEndpoint(t *testing.T) {
	engine := tinyEngine(t, 1)
	w := NewWorker("b1", engine, "deadbeef", WorkerOptions{MaxBatchClauses: 3})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	clauses := []string{
		"advisedBy(A,B) :- publication(C,A), publication(C,B)",
		"advisedBy(A,B) :- student(A)",
	}
	examples := []string{"advisedBy(s00,p00)", "advisedBy(s00,p01)", "advisedBy(s01,p01)"}
	dict := DictFingerprint(examples)

	// Ground truth from an identically configured engine.
	truth := tinyEngine(t, 1)
	want := make([][]bool, len(clauses))
	for i, cs := range clauses {
		for _, es := range examples {
			e, err := model.ParseExample(es)
			if err != nil {
				t.Fatal(err)
			}
			v, err := truth.Covers(context.Background(), logic.MustParseClause(cs), e)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], v)
		}
	}

	t.Run("inline-registers-and-answers", func(t *testing.T) {
		resp, body := postBatch(t, srv.URL, BatchCoverageRequest{Clauses: clauses, Dict: dict, Examples: examples}, "deadbeef", ProtoV2)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var br BatchCoverageResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Covered) != len(clauses) {
			t.Fatalf("%d bitsets for %d clauses", len(br.Covered), len(clauses))
		}
		for i, bs := range br.Covered {
			got, ok := UnpackBits(bs, len(examples))
			if !ok {
				t.Fatalf("clause %d: bitset length %d for %d examples", i, len(bs), len(examples))
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Errorf("clause %d example %d: batch verdict %v, local verdict %v", i, j, got[j], want[i][j])
				}
			}
		}
	})

	t.Run("dict-reference-answers", func(t *testing.T) {
		resp, body := postBatch(t, srv.URL, BatchCoverageRequest{Clauses: clauses[:1], Dict: dict}, "deadbeef", ProtoV2)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dict-only request status %d: %s", resp.StatusCode, body)
		}
		var br BatchCoverageResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		got, ok := UnpackBits(br.Covered[0], len(examples))
		if !ok {
			t.Fatal("bitset length mismatch on dict-referenced request")
		}
		for j := range got {
			if got[j] != want[0][j] {
				t.Errorf("example %d: dict-referenced verdict %v, want %v", j, got[j], want[0][j])
			}
		}
	})

	t.Run("unknown-dict-410", func(t *testing.T) {
		resp, body := postBatch(t, srv.URL, BatchCoverageRequest{Clauses: clauses[:1], Dict: "feedfacefeedfacefeedfacefeedface"}, "deadbeef", ProtoV2)
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("status %d, want 410: %s", resp.StatusCode, body)
		}
		if detail, ok := httpx.DecodeError(body); !ok || detail.Code != httpx.ErrCodeDictUnknown {
			t.Errorf("error body %s, want code %s", body, httpx.ErrCodeDictUnknown)
		}
	})

	t.Run("no-examples-no-dict-400", func(t *testing.T) {
		resp, body := postBatch(t, srv.URL, BatchCoverageRequest{Clauses: clauses[:1]}, "deadbeef", ProtoV2)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400: %s", resp.StatusCode, body)
		}
	})

	t.Run("no-clauses-400", func(t *testing.T) {
		resp, body := postBatch(t, srv.URL, BatchCoverageRequest{Examples: examples}, "deadbeef", ProtoV2)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400: %s", resp.StatusCode, body)
		}
	})

	t.Run("too-many-clauses-413", func(t *testing.T) {
		big := BatchCoverageRequest{Clauses: append(append([]string(nil), clauses...), clauses...), Examples: examples}
		resp, body := postBatch(t, srv.URL, big, "deadbeef", ProtoV2)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413: %s", resp.StatusCode, body)
		}
	})

	t.Run("wrong-proto-409", func(t *testing.T) {
		for _, proto := range []string{"1", "3"} {
			resp, body := postBatch(t, srv.URL, BatchCoverageRequest{Clauses: clauses, Examples: examples}, "deadbeef", proto)
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("X-Shard-Proto %s on /v2/coverage: status %d, want 409: %s", proto, resp.StatusCode, body)
			}
			if detail, ok := httpx.DecodeError(body); !ok || detail.Code != httpx.ErrCodeUnsupportedProto {
				t.Errorf("error body %s, want code %s", body, httpx.ErrCodeUnsupportedProto)
			}
		}
	})
}

// TestWorkerParseCachesAreBounded: a worker that has been sent more
// distinct clause texts than its parse cache holds drops the cache and
// carries on — the verdicts do not notice, and neither map outgrows its
// bound.
func TestWorkerParseCachesAreBounded(t *testing.T) {
	w := NewWorker("b1", tinyEngine(t, 1), "deadbeef", WorkerOptions{})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	// One clause under maxCachedClauses+10 spellings: distinct texts to the
	// parse cache, one record to the engine's store.
	examples := []string{"advisedBy(s00,p00)", "advisedBy(s00,p01)"}
	want := []bool{true, false}
	for from := 0; from < maxCachedClauses+10; from += w.opts.MaxBatchClauses {
		var clauses []string
		for i := from; i < from+w.opts.MaxBatchClauses; i++ {
			clauses = append(clauses, fmt.Sprintf("advisedBy(A,B) :- publication(C%d,A), publication(C%d,B)", i, i))
		}
		resp, body := postBatch(t, srv.URL, BatchCoverageRequest{Clauses: clauses, Examples: examples}, "deadbeef", ProtoV2)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var br BatchCoverageResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		for i, bs := range br.Covered {
			if got, ok := UnpackBits(bs, len(examples)); !ok || !slices.Equal(got, want) {
				t.Fatalf("clause %d: verdicts %v, want %v", from+i, got, want)
			}
		}
		if n := len(w.clauses); n > maxCachedClauses {
			t.Fatalf("clause cache holds %d texts after %d distinct ones, bound %d", n, from+len(clauses), maxCachedClauses)
		}
	}
	if n := len(w.clauses); n == 0 || n >= maxCachedClauses {
		t.Errorf("clause cache holds %d texts; it was never reset and refilled", n)
	}

	for i := 0; i < maxCachedExamples+10; i++ {
		if _, err := w.parseExample(fmt.Sprintf("advisedBy(s%d,p%d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(w.examples); n == 0 || n > maxCachedExamples {
		t.Errorf("example cache holds %d texts, bound %d", n, maxCachedExamples)
	}
}

// countLocal is the exact number of examples c covers on a local engine.
func countLocal(e *learn.CoverageEngine, c *logic.Clause, examples []learn.Example) (int, error) {
	ns, err := e.CountMany(context.Background(), []*logic.Clause{c}, examples, len(examples)+1)
	if err != nil {
		return 0, err
	}
	return ns[0], nil
}

// realWorkerCoordinator boots one real worker (identically configured
// engine) and a coordinator bound to it, with a fresh collector.
func realWorkerCoordinator(t *testing.T) (*Coordinator, *metrics.Collector) {
	t.Helper()
	w := NewWorker("rw", tinyEngine(t, 1), "fp1", WorkerOptions{})
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	mc := metrics.New()
	co, _ := bindCoordinator(t, Options{Shards: [][]string{{srv.URL}}, Fingerprint: "fp1", Metrics: mc})
	return co, mc
}

func TestCoordinatorBatchFrontier(t *testing.T) {
	co, mc := realWorkerCoordinator(t)
	_, pos, neg := tinyWorld(t)
	all := append(append([]learn.Example(nil), pos...), neg...)
	frontier := []*logic.Clause{
		logic.MustParseClause("advisedBy(A,B) :- publication(C,A), publication(C,B)"),
		logic.MustParseClause("advisedBy(A,B) :- student(A)"),
		logic.MustParseClause("advisedBy(A,B) :- professor(B)"),
	}

	// Ground truth from an identically configured local engine.
	truth := tinyEngine(t, 1)
	want := make([]int, len(frontier))
	for i, c := range frontier {
		n, err := countLocal(truth, c, all)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = n
	}

	got, err := co.CountMany(context.Background(), frontier, all, len(all)+1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frontier {
		if got[i] != want[i] {
			t.Errorf("clause %d: batched count %d, want %d", i, got[i], want[i])
		}
	}
	snap := mc.Snapshot()
	if rpcs := snap.Gauges["shard.rpc_sent"]; rpcs != 1 {
		t.Errorf("3-clause frontier on 1 shard took %d RPCs, want 1 batched round", rpcs)
	}
	if snap.Gauges["shard.dict_registers"] != 1 {
		t.Errorf("dict_registers = %d, want 1", snap.Gauges["shard.dict_registers"])
	}
	if snap.Gauges["shard.wire_bytes_sent"] == 0 || snap.Gauges["shard.wire_bytes_recv"] == 0 {
		t.Error("wire-byte counters did not move")
	}

	// Every verdict memoized: the same frontier again costs zero RPCs.
	if _, err := co.CountMany(context.Background(), frontier, all, len(all)+1); err != nil {
		t.Fatal(err)
	}
	if rpcs := mc.Snapshot().Gauges["shard.rpc_sent"]; rpcs != 1 {
		t.Errorf("fully memoized frontier re-count issued %d extra RPCs", rpcs-1)
	}
}

func TestCoordinatorDictReRegisterAfterRestart(t *testing.T) {
	// A swappable worker behind a stable URL models a process restart:
	// the replacement holds no dictionaries, so the coordinator's
	// dict-referenced batch gets 410 and must re-register inline.
	var cur atomic.Pointer[Worker]
	cur.Store(NewWorker("r1", tinyEngine(t, 1), "fp1", WorkerOptions{}))
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(rw, r)
	}))
	defer srv.Close()
	mc := metrics.New()
	co, _ := bindCoordinator(t, Options{Shards: [][]string{{srv.URL}}, Fingerprint: "fp1", Metrics: mc})

	_, pos, neg := tinyWorld(t)
	all := append(append([]learn.Example(nil), pos...), neg...)
	truth := tinyEngine(t, 1)
	c1 := logic.MustParseClause("advisedBy(A,B) :- publication(C,A), publication(C,B)")
	c2 := logic.MustParseClause("advisedBy(A,B) :- student(A)")

	if _, err := co.CountMany(context.Background(), []*logic.Clause{c1}, all, len(all)+1); err != nil {
		t.Fatal(err)
	}
	if mc.Snapshot().Gauges["shard.dict_registers"] != 1 {
		t.Fatalf("first count did not register the example-set dictionary")
	}

	// "Restart" the worker: fresh engine, empty dictionary store.
	cur.Store(NewWorker("r2", tinyEngine(t, 1), "fp1", WorkerOptions{}))

	got, err := co.CountMany(context.Background(), []*logic.Clause{c2}, all, len(all)+1)
	if err != nil {
		t.Fatalf("dict invalidation must recover transparently: %v", err)
	}
	want, err := countLocal(truth, c2, all)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want {
		t.Errorf("post-restart count %d, want %d", got[0], want)
	}
	snap := mc.Snapshot()
	if snap.Gauges["shard.dict_registers"] != 2 {
		t.Errorf("dict_registers = %d, want 2 (initial + re-register after restart)", snap.Gauges["shard.dict_registers"])
	}
}

func TestCoordinatorFatalCancelsSiblingShards(t *testing.T) {
	_, pos, neg := tinyWorld(t)
	all := append(append([]learn.Example(nil), pos...), neg...)
	// The test needs work on both shards; the shard map is a pure hash,
	// so assert the split holds for this example set.
	split := map[int]int{}
	for _, e := range all {
		split[shardFor(e.String(), 2)]++
	}
	if split[0] == 0 || split[1] == 0 {
		t.Fatalf("example set maps to one shard only (%v); pick different examples", split)
	}

	fatalSrv, _ := stubWorker(func(w http.ResponseWriter, r *http.Request, n int64) bool {
		httpx.WriteJSON(w, http.StatusConflict, httpx.ErrorBody{Error: httpx.ErrorDetail{Code: httpx.ErrCodeConfigMismatch, Message: "wrong task"}})
		return true
	})
	defer fatalSrv.Close()
	slowSrv, slowCalls := stubWorker(func(w http.ResponseWriter, r *http.Request, n int64) bool {
		select {
		case <-time.After(3 * time.Second):
		case <-r.Context().Done():
		}
		httpx.WriteJSON(w, http.StatusInternalServerError, httpx.ErrorBody{Error: httpx.ErrorDetail{Code: httpx.ErrCodeInternal, Message: "slow crash"}})
		return true
	})
	defer slowSrv.Close()

	co, _ := bindCoordinator(t, Options{
		Shards:       [][]string{{fatalSrv.URL}, {slowSrv.URL}},
		Retries:      3,
		RetryBackoff: 500 * time.Millisecond,
	})
	c := logic.MustParseClause("advisedBy(A,B) :- student(A)")
	start := time.Now()
	_, err := countOne(co, c, all, len(all))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fatal shard answer did not fail the count")
	}
	if !strings.Contains(err.Error(), "config mismatch") {
		t.Errorf("count failed with %v, want the fatal config mismatch", err)
	}
	// Without sibling cancellation the slow shard would burn its full
	// retry budget: 3 attempts x 3s + backoffs ≈ 10s. With it, the count
	// returns as soon as the fatal answer lands.
	if elapsed > 1500*time.Millisecond {
		t.Errorf("count took %s after a fatal answer; sibling shards were not cancelled", elapsed)
	}
	if n := slowCalls.Load(); n > 1 {
		t.Errorf("slow sibling was retried %d times into a doomed count", n)
	}
}

func TestCoordinatorKeepAliveSteadyState(t *testing.T) {
	w := NewWorker("ka", tinyEngine(t, 1), "fp1", WorkerOptions{})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	var dials atomic.Int64
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 16,
	}}
	co, _ := bindCoordinator(t, Options{Shards: [][]string{{srv.URL}}, Fingerprint: "fp1", Client: client})

	_, pos, neg := tinyWorld(t)
	all := append(append([]learn.Example(nil), pos...), neg...)
	frontiers := [][]*logic.Clause{
		{logic.MustParseClause("advisedBy(A,B) :- publication(C,A), publication(C,B)")},
		{logic.MustParseClause("advisedBy(A,B) :- student(A)")},
		{logic.MustParseClause("advisedBy(A,B) :- professor(B)")},
	}
	for _, f := range frontiers {
		if _, err := co.CountMany(context.Background(), f, all, len(all)+1); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("steady-state workload dialed %d times, want 1 (keep-alive reuse)", n)
	}
}

func TestWorkerPreloadGatesReadiness(t *testing.T) {
	engine := tinyEngine(t, 1)
	w := NewWorker("pre", engine, "fp1", WorkerOptions{})
	w.BeginPreload()
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-preload readyz status %d, want 503", resp.StatusCode)
	}

	_, pos, neg := tinyWorld(t)
	all := append(append([]learn.Example(nil), pos...), neg...)
	n, err := w.Preload(context.Background(), all, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(all) {
		t.Errorf("unsharded preload warmed %d BCs, want %d", n, len(all))
	}
	if got := engine.CachedBCs(); got != len(all) {
		t.Errorf("engine holds %d cached BCs after preload, want %d", got, len(all))
	}

	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Preloaded int64 `json:"preloaded"`
		Proto     int   `json:"proto"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&ready); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-preload readyz status %d, want 200", resp.StatusCode)
	}
	if ready.Preloaded != int64(len(all)) {
		t.Errorf("readyz reports %d preloaded BCs, want %d", ready.Preloaded, len(all))
	}
	if ready.Proto != 2 {
		t.Errorf("readyz reports proto %d, want 2", ready.Proto)
	}

	// Shard-scoped preload warms only the owned range.
	owned := 0
	for _, e := range all {
		if shardFor(e.String(), 2) == 0 {
			owned++
		}
	}
	scoped := NewWorker("pre0", tinyEngine(t, 1), "fp1", WorkerOptions{})
	n, err = scoped.Preload(context.Background(), all, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != owned {
		t.Errorf("shard-0-of-2 preload warmed %d BCs, want %d (its owned range)", n, owned)
	}
}

func TestNewFleetClientTuned(t *testing.T) {
	small := newFleetClient([][]string{{"a", "b"}, {"c"}})
	tr, ok := small.Transport.(*http.Transport)
	if !ok {
		t.Fatal("fleet client transport is not an *http.Transport")
	}
	if tr.MaxIdleConnsPerHost < 16 {
		t.Errorf("small fleet MaxIdleConnsPerHost %d, want the 16 floor", tr.MaxIdleConnsPerHost)
	}
	bigFleet := make([][]string, 20)
	total := 0
	for i := range bigFleet {
		bigFleet[i] = []string{fmt.Sprintf("http://w%d-a", i), fmt.Sprintf("http://w%d-b", i)}
		total += 2
	}
	big := newFleetClient(bigFleet)
	tr2 := big.Transport.(*http.Transport)
	if tr2.MaxIdleConnsPerHost < total {
		t.Errorf("40-replica fleet MaxIdleConnsPerHost %d, want >= %d so steady state never churns connections", tr2.MaxIdleConnsPerHost, total)
	}
}
