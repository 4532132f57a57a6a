package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/benchenv"
	"repro/internal/learn"
	"repro/internal/logic"
)

// Benchmarks for the distributed coverage transport. The interesting
// costs are per-RPC, not per-subsumption (BENCH_subsume.json owns that):
// what one coverage round-trip costs against a memo-hot worker, what the
// coordinator's local memo short-circuit costs, and what the full
// coordinator fan-out adds on top of the raw RPC. Results are tracked in
// BENCH_shard.json; each entry records benchenv.Capture().

func benchFleet(tb testing.TB) (*httptest.Server, *Worker) {
	tb.Helper()
	engine := tinyEngine(tb, 1)
	w := NewWorker("bench", engine, "benchfp", WorkerOptions{})
	srv := httptest.NewServer(w.Handler())
	tb.Cleanup(srv.Close)
	return srv, w
}

// coldEngines returns a source of fresh coordinator-side engines over
// one tiny world. The engine's store keys verdicts by canonical clause,
// so a fresh clause pointer would not keep the coordinator's store cold
// — a fresh engine does, and building one is a few allocations (the
// bias is compiled once, here).
func coldEngines(tb testing.TB) func() *learn.CoverageEngine {
	tb.Helper()
	d, _, _ := tinyWorld(tb)
	compiled := worldBias(tb, d)
	return func() *learn.CoverageEngine { return newEngine(d, compiled, 1) }
}

func benchExamples() []learn.Example {
	var out []learn.Example
	for i := 0; i < 4; i++ {
		out = append(out,
			logic.NewLiteral("advisedBy", logic.Const(name("s", i)), logic.Const(name("p", i))),
			logic.NewLiteral("advisedBy", logic.Const(name("s", i)), logic.Const(name("p", (i+1)%4))))
	}
	return out
}

func name(prefix string, i int) string {
	return prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

const benchClause = "advisedBy(A,B) :- publication(C,A), publication(C,B)"

// benchFrontierTexts generates n distinct candidate-clause texts over
// the tiny world's language — deterministic body-literal subsets, the
// shape a refinement step's frontier has.
func benchFrontierTexts(n int) []string {
	lits := []string{"student(A)", "professor(B)", "publication(C,A)", "publication(C,B)", "publication(D,A)", "publication(D,B)"}
	var out []string
	for mask := 1; mask < 1<<len(lits) && len(out) < n; mask++ {
		body := ""
		for i, l := range lits {
			if mask&(1<<i) == 0 {
				continue
			}
			if body != "" {
				body += ", "
			}
			body += l
		}
		out = append(out, "advisedBy(A,B) :- "+body)
	}
	return out
}

// BenchmarkWorkerRPC measures one HTTP coverage round-trip against a
// memo-hot worker: transport + JSON codec + 8 memoized verdicts, the
// example set inline.
func BenchmarkWorkerRPC(b *testing.B) {
	b.Logf("env: %s", benchenv.Capture())
	srv, _ := benchFleet(b)
	var keys []string
	for _, e := range benchExamples() {
		keys = append(keys, e.String())
	}
	body, err := json.Marshal(BatchCoverageRequest{Clauses: []string{benchClause}, Examples: keys})
	if err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(srv.URL+"/v2/coverage", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var br BatchCoverageResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if _, ok := UnpackBits(br.Covered[0], len(keys)); !ok {
			b.Fatalf("%d-byte bitset for %d examples", len(br.Covered[0]), len(keys))
		}
	}
	b.ReportMetric(float64(len(keys))*float64(b.N)/b.Elapsed().Seconds(), "verdicts/sec")
}

// BenchmarkCoordinatorMemoHit measures a fully-memoized count — the
// steady-state cost of re-scoring a known candidate: no RPC at all.
func BenchmarkCoordinatorMemoHit(b *testing.B) {
	b.Logf("env: %s", benchenv.Capture())
	srv, _ := benchFleet(b)
	co, err := New(Options{Shards: [][]string{{srv.URL}}})
	if err != nil {
		b.Fatal(err)
	}
	co.Bind(tinyEngine(b, 1))
	b.Cleanup(co.Close)
	c := logic.MustParseClause(benchClause)
	examples := benchExamples()
	if _, err := countOne(co, c, examples); err != nil {
		b.Fatal(err) // warm the memo
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := countOne(co, c, examples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(examples))*float64(b.N)/b.Elapsed().Seconds(), "verdicts/sec")
}

// BenchmarkCoordinatorProcsMatrix re-runs the full coordinator path
// with GOMAXPROCS pinned to 1/4/8 per cell: the coordinator fans shard
// RPCs out on goroutines and the worker serves them concurrently, so
// core starvation shows up directly in verdicts/sec. Results append to
// BENCH_shard.json (gomaxprocs field).
func BenchmarkCoordinatorProcsMatrix(b *testing.B) {
	benchenv.RunProcs(b, benchenv.MatrixProcs(), func(b *testing.B) {
		b.Logf("env: %s", benchenv.Capture())
		srv, _ := benchFleet(b)
		co, err := New(Options{Shards: [][]string{{srv.URL}}})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(co.Close)
		fresh := coldEngines(b)
		examples := benchExamples()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			co.Bind(fresh())
			c, err := logic.ParseClause(benchClause)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := countOne(co, c, examples); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(examples))*float64(b.N)/b.Elapsed().Seconds(), "verdicts/sec")
	})
}

// BenchmarkCoordinatorRPC measures the full coordinator path — shard
// grouping, RPC, merge, memoization — with a fresh coordinator engine per
// iteration so the coordinator's store never hits (the worker's does).
func BenchmarkCoordinatorRPC(b *testing.B) {
	b.Logf("env: %s", benchenv.Capture())
	srv, _ := benchFleet(b)
	co, err := New(Options{Shards: [][]string{{srv.URL}}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(co.Close)
	fresh := coldEngines(b)
	examples := benchExamples()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co.Bind(fresh())
		c, err := logic.ParseClause(benchClause)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := countOne(co, c, examples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(examples))*float64(b.N)/b.Elapsed().Seconds(), "verdicts/sec")
}

// BenchmarkCoordinatorBatchRPC measures the batched frontier path: an
// 8-clause frontier resolved by CountMany in one wire round — inline
// examples, packed-bitset verdicts. A fresh
// coordinator engine per iteration keeps the coordinator's store cold
// (the worker's parse cache and store are hot, like
// BenchmarkCoordinatorRPC), so verdicts/sec here vs
// BenchmarkCoordinatorRPC is the per-verdict amortization batching buys.
func BenchmarkCoordinatorBatchRPC(b *testing.B) {
	b.Logf("env: %s", benchenv.Capture())
	srv, _ := benchFleet(b)
	co, err := New(Options{Shards: [][]string{{srv.URL}}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(co.Close)
	fresh := coldEngines(b)
	texts := benchFrontierTexts(8)
	examples := benchExamples()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := fresh()
		co.Bind(e)
		frontier := make([]*logic.Clause, len(texts))
		for j, txt := range texts {
			c, err := logic.ParseClause(txt)
			if err != nil {
				b.Fatal(err)
			}
			frontier[j] = c
		}
		counts, err := e.CountMany(context.Background(), frontier, examples)
		if err != nil {
			b.Fatal(err)
		}
		if len(counts) != len(frontier) {
			b.Fatalf("%d counts for %d clauses", len(counts), len(frontier))
		}
	}
	b.ReportMetric(float64(len(texts)*len(examples))*float64(b.N)/b.Elapsed().Seconds(), "verdicts/sec")
}
