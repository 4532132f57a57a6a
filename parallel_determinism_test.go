package autobias

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestLearnDeterministicAcrossWorkers: the facade-level guarantee that
// the Workers knob changes wall-clock only. Neither the coverage pool
// nor the armg fan-out may leave a trace of the worker count: at 1 (the
// exact sequential engine), 2, 4 and 8 workers a run must end with the
// same theory, the same deterministic counters (candidates scored,
// armg.* among them), the same coverage and subsumption test totals
// (every count is exact, so no worker count skips a test), the same
// armg memo (the pairs the rounds planned and stored), and the same
// intern table in the same id order — the
// symbol table a model artifact records, which the sequential ground-BC
// prefetch exists to keep stable. The top-down search is held to the
// same: its growth steps score whole frontiers through the pool, under
// a scoring cap small enough that the run draws its samples.
func TestLearnDeterministicAcrossWorkers(t *testing.T) {
	learnDeterministicAcrossWorkers(t, Options{Method: MethodAutoBias, Seed: 2, Metrics: true})
	learnDeterministicAcrossWorkers(t, Options{Method: MethodAleph, Seed: 2, Metrics: true, EvalSampleCap: 20})
}

func learnDeterministicAcrossWorkers(t *testing.T, opts Options) {
	task := uwTask(t, 0.15)
	type outcome struct {
		theory   string
		counters map[string]int64
		tests    map[string]int64
		memoKeys [][2]string
		symbols  []string
	}
	var ref outcome
	for _, workers := range []int{1, 2, 4, 8} {
		opts.Workers = workers
		res, err := Learn(task, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := outcome{
			theory:   res.Definition.String(),
			counters: res.Metrics.Counters,
			tests:    make(map[string]int64),
			memoKeys: res.engine.ExtractCarried().ARMGPairs(),
			symbols:  res.engine.Interner().Symbols(),
		}
		for _, name := range []string{
			"coverage.tests", "coverage.memo_hits", "coverage.bc_cache_hits",
			"subsume.tests", "subsume.nodes", "subsume.budget_exhausted",
			"subsume.probe_decided", "subsume.refuted",
		} {
			got.tests[name] = res.Metrics.Gauges[name]
		}
		if workers == 1 {
			ref = got
			if opts.Method == MethodAutoBias && (got.counters["armg.applications"] == 0 || got.counters["armg.literals_refuted"] == 0) {
				t.Fatalf("the run exercised no armg pass or no refutation: %v", got.counters)
			}
			if got.counters["learn.candidates"] == 0 || res.Clauses == 0 || got.tests["coverage.tests"] == 0 {
				t.Fatalf("%s: the run scored no candidate or kept no clause: %v", opts.Method, got.counters)
			}
			continue
		}
		label := fmt.Sprintf("%s workers=%d", opts.Method, workers)
		if got.theory != ref.theory {
			t.Errorf("%s: theory diverges from workers=1:\n%s\nwant:\n%s", label, got.theory, ref.theory)
		}
		if !reflect.DeepEqual(got.counters, ref.counters) {
			t.Errorf("%s: deterministic counters diverge from workers=1:\n%v\nwant:\n%v", label, got.counters, ref.counters)
		}
		if !reflect.DeepEqual(got.tests, ref.tests) {
			t.Errorf("%s: test totals diverge from workers=1:\n%v\nwant:\n%v", label, got.tests, ref.tests)
		}
		if !slices.Equal(got.memoKeys, ref.memoKeys) {
			t.Errorf("%s: armg memo holds %d keys, workers=1 holds %d (or different ones)", label, len(got.memoKeys), len(ref.memoKeys))
		}
		if !slices.Equal(got.symbols, ref.symbols) {
			t.Errorf("%s: intern table holds %d symbols, workers=1 holds %d (or in another order)", label, len(got.symbols), len(ref.symbols))
		}
	}
}

// TestCrossValidateDeterministicAcrossWorkers: k-fold CV — with both
// fold-level and coverage-level parallelism engaged — reports the same
// metrics as the sequential run.
func TestCrossValidateDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("cross validation is slow")
	}
	task := uwTask(t, 0.2)
	cv1, err := CrossValidate(task, Options{Method: MethodAutoBias, Seed: 3, Workers: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cv8, err := CrossValidate(task, Options{Method: MethodAutoBias, Seed: 3, Workers: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cv1.Precision != cv8.Precision || cv1.Recall != cv8.Recall || cv1.F1 != cv8.F1 {
		t.Errorf("CV metrics diverge across worker counts:\nworkers=1: P=%v R=%v F1=%v\nworkers=8: P=%v R=%v F1=%v",
			cv1.Precision, cv1.Recall, cv1.F1, cv8.Precision, cv8.Recall, cv8.F1)
	}
	if len(cv1.Folds) != len(cv8.Folds) {
		t.Fatalf("fold counts diverge: %d vs %d", len(cv1.Folds), len(cv8.Folds))
	}
	for i := range cv1.Folds {
		if cv1.Folds[i].Metrics != cv8.Folds[i].Metrics || cv1.Folds[i].Clauses != cv8.Folds[i].Clauses {
			t.Errorf("fold %d diverges: %+v vs %+v", i, cv1.Folds[i], cv8.Folds[i])
		}
	}
}
