package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bias"
	"repro/internal/bottom"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/httpx"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/subsume"
)

// TestWorkerRefutedBitsMatchStore: the worker's refuted bitset is the
// completeness mark its in-process store keeps for the same pairs, so a
// coordinator that stores the wire's verdicts holds what a local run
// would. The fixture's budget leaves some "no"s unproved, so both kinds
// of "not covered" cross the wire.
func TestWorkerRefutedBitsMatchStore(t *testing.T) {
	d, pos, neg := sizedWorld(t, 6)
	engine := func() *learn.CoverageEngine {
		return learn.NewCoverage(bottom.NewBuilder(d, worldBias(t, d), bottom.Options{Depth: 1, Seed: 1}), subsume.Options{MaxNodes: 3})
	}
	w := NewWorker("rf", engine(), "fp", WorkerOptions{})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	clauses := []string{
		"advisedBy(A,B) :- publication(C,A), publication(C,B)",
		"advisedBy(A,B) :- student(A), publication(C,A), publication(D,B), publication(C,E), publication(D,E)",
		"advisedBy(A,B) :- professor(A)",
	}
	examples := append(append([]learn.Example(nil), pos...), neg...)
	keys := make([]string, len(examples))
	parsed := make([]*logic.Clause, len(clauses))
	for j, e := range examples {
		keys[j] = e.String()
	}
	for i, cs := range clauses {
		parsed[i] = logic.MustParseClause(cs)
	}
	want, err := engine().ResolveLocal(context.Background(), parsed, examples)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postBatch(t, srv.URL, BatchCoverageRequest{Clauses: clauses, Examples: keys}, "fp")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchCoverageResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Refuted) != len(clauses) {
		t.Fatalf("%d refuted bitsets for %d clauses", len(br.Refuted), len(clauses))
	}
	kinds := map[learn.Verdict]int{}
	for i := range clauses {
		covered, ok1 := UnpackBits(br.Covered[i], len(keys))
		refuted, ok2 := UnpackBits(br.Refuted[i], len(keys))
		if !ok1 || !ok2 {
			t.Fatalf("clause %d: bitsets do not hold %d examples", i, len(keys))
		}
		for j := range keys {
			got := learn.Verdict{Covered: covered[j], Refuted: refuted[j]}
			if got != want[i][j] {
				t.Errorf("clause %d on %s: wire %+v, store %+v", i, keys[j], got, want[i][j])
			}
			kinds[got]++
		}
	}
	for _, v := range []learn.Verdict{{Covered: true}, {Refuted: true}, {}} {
		if kinds[v] == 0 {
			t.Errorf("fixture: no pair answered %+v (%v); the test needs covered, refuted and unproved pairs", v, kinds)
		}
	}
}

// TestCoordinatorRejectsCoveredAndRefuted: a pair marked both covered
// and refuted is a malformed answer, rejected like a bitset of the wrong
// length — a failed attempt, never a stored verdict.
func TestCoordinatorRejectsCoveredAndRefuted(t *testing.T) {
	srv, calls := stubWorker(func(w http.ResponseWriter, r *http.Request, _ int64) bool {
		var req BatchCoverageRequest
		json.NewDecoder(r.Body).Decode(&req)
		all := make([]bool, len(req.Examples))
		for j := range all {
			all[j] = true
		}
		resp := BatchCoverageResponse{}
		for range req.Clauses {
			resp.Covered = append(resp.Covered, PackBits(all))
			resp.Refuted = append(resp.Refuted, PackBits(all))
		}
		httpx.WriteJSON(w, http.StatusOK, resp)
		return true
	})
	defer srv.Close()
	co, _ := bindCoordinator(t, Options{Shards: [][]string{{srv.URL}}, Retries: 2, DisableLocalFallback: true})
	_, pos, _ := tinyWorld(t)
	_, err := countOne(co, logic.MustParseClause("advisedBy(A,B) :- student(A)"), pos)
	if !errors.Is(err, ErrShardsLost) || !strings.Contains(err.Error(), "both covered and refuted") {
		t.Fatalf("err = %v, want the malformed answer rejected and the shard lost", err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("%d attempts, want the retry budget (2) spent on the malformed answer", n)
	}
}

// olderWorker answers like a worker from before the refuted bitset: the
// real worker's response with Refuted dropped.
func olderWorker(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var br BatchCoverageResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &br) != nil {
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		br.Refuted = nil
		out, _ := json.Marshal(br)
		if bytes.Contains(out, []byte(`"refuted"`)) {
			panic("omitempty did not drop the refuted field")
		}
		httpx.WriteJSON(w, http.StatusOK, json.RawMessage(out))
	})
}

// TestOlderWorkerSameTheory: learning imdb (scale 0.1, ten positives,
// thirty negatives, induced bias) through workers that send the refuted
// bitset, and through workers that do not, yields the local theory and
// the local learn.reduce_* counters. A missing bit proves nothing, so it
// can only cost the coordinator tests: through the older workers its
// reduction sends more RPC rounds, and never decides differently.
func TestOlderWorkerSameTheory(t *testing.T) {
	ds, err := datagen.Generate("imdb", datagen.Config{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]db.Tuple, len(ds.Pos))
	for i, e := range ds.Pos {
		for _, term := range e.Terms {
			tuples[i] = append(tuples[i], term.Name)
		}
	}
	induced, err := bias.Induce(ds.DB, ds.Target, ds.TargetAttrs, tuples, bias.InduceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, pos, neg := ds.DB, ds.Pos[:min(len(ds.Pos), 10)], ds.Neg[:min(len(ds.Neg), 30)]
	c, err := induced.Bias.Compile(d.Schema(), ds.Target, len(ds.TargetAttrs))
	if err != nil {
		t.Fatal(err)
	}
	opts := func(mc *metrics.Collector) learn.Options {
		return learn.Options{Bottom: bottom.Options{Seed: 1}, Workers: 1, Seed: 1, Metrics: mc}
	}
	learnVia := func(wrap func(http.Handler) http.Handler) (string, metrics.Snapshot) {
		mc := metrics.New()
		l := learn.New(d, c, opts(mc))
		if wrap != nil {
			w := NewWorker("ow", learn.New(d, c, opts(nil)).Coverage(), "", WorkerOptions{})
			srv := httptest.NewServer(wrap(w.Handler()))
			defer srv.Close()
			co, err := New(Options{Shards: [][]string{{srv.URL}}, DisableLocalFallback: true, Metrics: mc})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			co.Bind(l.Coverage())
		}
		def, _, err := l.Learn(pos, neg)
		if err != nil {
			t.Fatal(err)
		}
		return def.String(), mc.Snapshot()
	}
	wantDef, want := learnVia(nil)
	if want.Counters["learn.reduce_trials"] == 0 {
		t.Fatalf("fixture: the local run reduced nothing (%v)", want.Counters)
	}
	current := func(h http.Handler) http.Handler { return h }
	var rpcs []int64
	for _, leg := range []struct {
		name string
		wrap func(http.Handler) http.Handler
	}{{"current workers", current}, {"older workers", olderWorker}} {
		def, got := learnVia(leg.wrap)
		if def != wantDef {
			t.Errorf("%s: theory diverges from the local run:\n%s\nwant\n%s", leg.name, def, wantDef)
		}
		for _, name := range []string{"learn.reduce_trials", "learn.reduce_full_counts", "learn.rounds", "learn.candidates"} {
			if got.Counters[name] != want.Counters[name] {
				t.Errorf("%s: %s = %d, local %d", leg.name, name, got.Counters[name], want.Counters[name])
			}
		}
		rpcs = append(rpcs, got.Gauges["shard.rpc_sent"])
	}
	if rpcs[0] == 0 || rpcs[1] <= rpcs[0] {
		t.Errorf("RPCs sent: %d through current workers, %d through older ones; want the refuted bits to save rounds", rpcs[0], rpcs[1])
	}
}
