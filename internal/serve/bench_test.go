package serve

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/benchenv"
	"repro/internal/model"
)

func person(i int) string { return fmt.Sprintf("p%03d", i) }

func benchExamples(batch int) []Example {
	examples := make([]Example, batch)
	for i := range examples {
		if i%2 == 0 {
			examples[i], _ = model.ParseExample(fmt.Sprintf("gp(%s,%s)", person(i), person(i+2)))
		} else {
			examples[i], _ = model.ParseExample(fmt.Sprintf("gp(%s,%s)", person(i), person(i+3)))
		}
	}
	return examples
}

// BenchmarkPredictBatch measures batch-inference throughput
// (predictions per second) at several worker counts, in two modes that
// bracket the serving cost spectrum:
//
//   - hot: the production path, the verdict memo. Repeated traffic
//     converges to memo hits: a string render and a map probe.
//   - cold: Options.Uncached — every prediction rebuilds its BC on a
//     derived-seed clone, compiles it, and runs the subsumption check.
//     This is the floor the memo rescues us from, and the reference
//     engine of the differential suite.
//
// The committed baseline (BENCH_serve.json, 2026-08-05) ran the old
// pin-or-evict path at CacheLimit=1, which paid the cold cost every
// iteration; the ≥10x target compares hot cells against it.
func BenchmarkPredictBatch(b *testing.B) {
	b.Logf("env: %s", benchenv.Capture())
	const people = 200
	const batch = 64
	d, art := chainWorld(b, people)
	examples := benchExamples(batch)
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"hot", Options{}},
		{"cold", Options{Uncached: true}},
	} {
		for _, workers := range []int{1, 4, 8} {
			opts := mode.opts
			opts.Workers = workers
			b.Run(fmt.Sprintf("workers=%d/%s", workers, mode.name), func(b *testing.B) {
				m, err := Bind(context.Background(), "gp", art, d, opts)
				if err != nil {
					b.Fatal(err)
				}
				// Warm once so hot cells measure steady state, not the
				// first-request build.
				if _, err := m.PredictBatch(context.Background(), examples); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.PredictBatch(context.Background(), examples); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "predictions/sec")
			})
		}
	}
}

// BenchmarkRegistryPredict measures the full tenancy path (resolve,
// in-flight budget) on the hot memo, quantifying the per-request
// overhead the registry adds over Model.PredictBatch.
func BenchmarkRegistryPredict(b *testing.B) {
	const people = 200
	const batch = 64
	d, art := chainWorld(b, people)
	examples := benchExamples(batch)
	m, err := Bind(context.Background(), "gp", art, d, Options{Workers: 1, ModelConcurrency: 8})
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	reg.Swap(m)
	if _, _, err := reg.Predict(context.Background(), "gp", examples); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := reg.Predict(context.Background(), "gp", examples); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "predictions/sec")
}
