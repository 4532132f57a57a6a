package serve

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// benchBaseline mirrors the committed BENCH_serve.json schema (the
// fields the gate needs).
type benchBaseline struct {
	Runs []struct {
		Date  string `json:"date"`
		Cells []struct {
			Name              string  `json:"name"`
			PredictionsPerSec float64 `json:"predictions_per_sec"`
		} `json:"cells"`
	} `json:"runs"`
}

// TestServeBenchGate is the CI throughput regression gate: opt-in via
// SERVE_BENCH_GATE=1, it measures the hot-path workers=1 cell of
// BenchmarkPredictBatch and fails if throughput fell more than 30%
// below the latest committed BENCH_serve.json run. CI machines are
// noisy, so the tolerance is wide — the gate exists to catch
// order-of-magnitude regressions (a broken memo path turns
// 8M predictions/sec into 40k, far outside any noise band), not
// single-digit drift.
func TestServeBenchGate(t *testing.T) {
	if os.Getenv("SERVE_BENCH_GATE") != "1" {
		t.Skip("set SERVE_BENCH_GATE=1 to run the throughput gate")
	}
	data, err := os.ReadFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Runs) == 0 {
		t.Fatal("BENCH_serve.json has no runs")
	}
	latest := base.Runs[len(base.Runs)-1]
	var want float64
	for _, cell := range latest.Cells {
		if cell.Name == "workers=1/hot" {
			want = cell.PredictionsPerSec
		}
	}
	if want == 0 {
		t.Fatalf("run %s has no workers=1/hot cell", latest.Date)
	}

	const batch = 64
	d, art := chainWorld(t, 200)
	examples := benchExamples(batch)
	m, err := Bind(context.Background(), "gp", art, d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictBatch(context.Background(), examples); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.PredictBatch(context.Background(), examples); err != nil {
				b.Fatal(err)
			}
		}
	})
	got := float64(res.N*batch) / res.T.Seconds()
	floor := 0.7 * want
	t.Logf("hot workers=1: %.0f predictions/sec (baseline %s: %.0f, floor %.0f)", got, latest.Date, want, floor)
	if got < floor {
		t.Fatalf("serving throughput regressed >30%%: %.0f predictions/sec < %.0f (70%% of the %s baseline %.0f); if intentional, append a new run to BENCH_serve.json",
			got, floor, latest.Date, want)
	}
}
