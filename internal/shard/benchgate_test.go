package shard

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/logic"
)

// benchBaseline mirrors the committed BENCH_shard.json schema (the
// fields the gate needs).
type benchBaseline struct {
	Runs []struct {
		Date  string `json:"date"`
		Cells []struct {
			Name           string  `json:"name"`
			VerdictsPerSec float64 `json:"verdicts_per_sec"`
		} `json:"cells"`
	} `json:"runs"`
}

// TestShardBenchGate is the CI RPC-cost regression gate: opt-in via
// SHARD_BENCH_GATE=1, it measures the memo-cold batched frontier path
// (the coordinator-batch-rpc cell of BenchmarkCoordinatorBatchRPC) and
// fails if per-verdict throughput fell more than 30% below the latest
// committed BENCH_shard.json run. CI machines are noisy, so the
// tolerance is wide — the gate exists to catch structural regressions
// (a lost dictionary that re-ships examples every round, a batch path
// that quietly degrades to per-candidate RPCs, a broken memo), not
// single-digit drift.
func TestShardBenchGate(t *testing.T) {
	if os.Getenv("SHARD_BENCH_GATE") != "1" {
		t.Skip("set SHARD_BENCH_GATE=1 to run the RPC-cost gate")
	}
	data, err := os.ReadFile("../../BENCH_shard.json")
	if err != nil {
		t.Fatal(err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Runs) == 0 {
		t.Fatal("BENCH_shard.json has no runs")
	}
	latest := base.Runs[len(base.Runs)-1]
	var want float64
	for _, cell := range latest.Cells {
		if cell.Name == "coordinator-batch-rpc" {
			want = cell.VerdictsPerSec
		}
	}
	if want == 0 {
		t.Fatalf("run %s has no coordinator-batch-rpc cell", latest.Date)
	}

	srv, _ := benchFleet(t)
	co, err := New(Options{Shards: [][]string{{srv.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	fresh := coldEngines(t)
	texts := benchFrontierTexts(8)
	examples := benchExamples()
	// Warm the worker's parse cache, verdict store, and the replica's
	// example dictionary: the gate measures steady-state transport cost,
	// not first-contact subsumption. Every round binds a fresh
	// coordinator engine, so no round is answered from the coordinator's
	// own store.
	{
		co.Bind(fresh())
		frontier := make([]*logic.Clause, len(texts))
		for j, txt := range texts {
			frontier[j] = logic.MustParseClause(txt)
		}
		if _, err := co.CountMany(context.Background(), frontier, examples, len(examples)); err != nil {
			t.Fatal(err)
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			co.Bind(fresh())
			frontier := make([]*logic.Clause, len(texts))
			for j, txt := range texts {
				c, err := logic.ParseClause(txt)
				if err != nil {
					b.Fatal(err)
				}
				frontier[j] = c
			}
			if _, err := co.CountMany(context.Background(), frontier, examples, len(examples)); err != nil {
				b.Fatal(err)
			}
		}
	})
	got := float64(res.N*len(texts)*len(examples)) / res.T.Seconds()
	floor := 0.7 * want
	t.Logf("batched frontier RPC: %.0f verdicts/sec (baseline %s: %.0f, floor %.0f)", got, latest.Date, want, floor)
	if got < floor {
		t.Fatalf("batched RPC cost regressed >30%%: %.0f verdicts/sec < %.0f (70%% of the %s baseline %.0f); if intentional, append a new run to BENCH_shard.json",
			got, floor, latest.Date, want)
	}
}
