package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "learn", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "predict", Start: 20, End: 50}, // overlaps learn by 10
		{ID: 3, Parent: 0, Name: "eval", Start: 60, End: 70},
		{ID: 4, Parent: 1, Name: "induce", Start: 12, End: 17},
		{ID: 5, Parent: 0, Name: "late", Start: 95, End: 120}, // runs past its parent
	}
	want := []int64{100 - 40 - 10 - 5, 20 - 5, 30, 10, 5, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerParentsAndTotals(t *testing.T) {
	tr := &tracer{on: true, run: "r"}
	endOuter := tr.begin("outer")
	tr.begin("inner")()
	tr.begin("inner")()
	endOuter()
	tr.on = false
	tr.begin("ignored")()
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	if tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 {
		t.Errorf("parents = %d, %d, %d; want -1, 0, 0", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent)
	}
	totals := tr.totals()
	if totals["inner"] > totals["outer"] {
		t.Errorf("children total %v exceeds their parent's %v", totals["inner"], totals["outer"])
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of {1,3} = %v, %v; Python gives 0.5, 3.5", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{name: "learn_s", better: "lower", bound: 0.1}
	higher := metricDecl{name: "predict_cold_per_s", better: "higher", bound: 0.1}
	exact := metricDecl{name: "f1_mean", better: "higher", bound: 0.05, exact: true}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	scale := func(k float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * k
		}
		return out
	}
	cases := []struct {
		name string
		d    metricDecl
		a, b []float64
		want string
	}{
		{"within the bound", lower, steady, scale(1.05), "same"},
		{"slower beyond the bound", lower, steady, scale(1.2), "worse"},
		{"faster beyond the bound", lower, steady, scale(0.8), "better"},
		{"throughput down", higher, steady, scale(0.8), "worse"},
		{"throughput up", higher, steady, scale(1.2), "better"},
		{"a side noisier than the bound", lower, steady, []float64{8, 10, 12, 14, 16}, "unresolved"},
		{"exact and identical", exact, []float64{0.9, 0.9}, []float64{0.9}, "same"},
		{"exact and different", exact, []float64{0.9, 0.9}, []float64{0.9, 0.91}, "worse"},
		{"per-layer time has no bound", metricDecl{name: "learn.run_s", better: "lower"}, steady, scale(2), "-"},
		{"guarded per-layer time has one", declIndex(perLayer)["learn.manual_s"], steady, scale(1.4), "worse"},
		{"the paper's ratio is guarded", declIndex(perLayer)["learn.induced_over_manual"], steady, scale(2), "worse"},
		{"a layer the workload bypasses", declIndex(perLayer)["learn.manual_s"], []float64{0, 0}, []float64{0, 0}, "-"},
		{"a quarter of a few milliseconds is under the floor", declIndex(endToEnd)["setup_s"], scale(0.0015), scale(0.002), "same"},
		{"jitter of a few milliseconds is under the floor", declIndex(endToEnd)["setup_s"], scale(0.0015), []float64{0.008, 0.012, 0.016, 0.02, 0.024}, "same"},
		{"set-up that grows past the floor", declIndex(endToEnd)["setup_s"], scale(0.01), scale(0.05), "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestMedianEachIsPerPiece(t *testing.T) {
	got := medianEach([][]float64{{1, 10, 7}, {3, 20}, {2, 60}})
	want := []float64{2, 20, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("piece %d: median %v, want %v", i, got[i], want[i])
		}
	}
	if medianEach(nil) != nil {
		t.Error("no repetition has no medians")
	}
}

// The work of a run is fixed by its flags: at the contract's --seconds
// every workload repeats its pass, and a shorter time still leaves two, so
// the first pass is always checked against a repetition.
func TestPassCountDependsOnFlagsAlone(t *testing.T) {
	want := map[string]int{"table5": 2, "table6": 2, "sharded-learn": 4, "live-loop": 2}
	for _, w := range workloadNames {
		if got := newRun(config{workload: w, seconds: 20}).passCount(); got != want[w] {
			t.Errorf("%s at 20 s: %d passes, want %d", w, got, want[w])
		}
		if got := newRun(config{workload: w, seconds: 5}).passCount(); got != 2 {
			t.Errorf("%s at 5 s: %d passes, want 2", w, got)
		}
		if got := newRun(config{workload: w, seconds: 60, trace: true}).passCount(); got != 2 {
			t.Errorf("%s traced: %d passes, want 2 (one untraced, one traced)", w, got)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the declarations repeat.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not made of letters, digits, '_', '.' and '-'", name)
		}
		if seen[name] {
			t.Errorf("metric name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d + %d metrics, the benchmark %d + %d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		checkName(d.name)
		if m := f.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		checkName(d.name)
		if m := f.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, d)
		}
	}
}

// TestQuickSmoke runs every workload at smoke-test size, traced, and one
// untraced: every declared name must be reported and nothing else, no
// operation may fail, and each workload must move the layers it exists
// for.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the learner; skipped with -short")
	}
	moves := map[string][]string{
		"table5":        {"learn.manual_s", "learn.induced_s", "ind.candidates", "bias.induced_defs", "bottom.construct_naive_s", "subsume.check_per_s", "db.lookup_per_s"},
		"table6":        {"learn.random_s", "learn.stratified_s", "bottom.construct_random_s", "bottom.construct_stratified_s", "db.select_in_per_s"},
		"sharded-learn": {"learn.sharded_s", "learn.local_pure_s", "shard.rpc_sent", "shard.worker_requests", "shard.worker_busy_s", "shard.fleet_start_s"},
		"live-loop":     {"autobias.repair_s", "ingest.stream_tuples_per_s", "model.artifact_bytes", "serve.predict_warm_per_s", "serve.memo_hits", "db.reads_during_ingest_per_s", "serve.churn_predict_per_s", "learn.relearn_s"},
	}
	run := func(workload string, trace bool, want []metricDecl) result {
		res, err := execute(config{workload: workload, seed: 1, seconds: 1, trace: trace, quick: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: reported %d metrics, declared %d", workload, len(res.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s reported as %+v (present %v), want unit %s", workload, d.name, m, ok, d.unit)
			}
		}
		return res
	}
	for _, workload := range workloadNames {
		res := run(workload, true, perLayer)
		for _, name := range moves[workload] {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want it moved", workload, name, res.Metrics[name].Value)
			}
		}
	}
	res := run("table5", false, endToEnd)
	for _, d := range endToEnd {
		if res.Metrics[d.name].Value <= 0 {
			t.Errorf("table5: end-to-end metric %s = %v, want a positive value", d.name, res.Metrics[d.name].Value)
		}
	}
	// The untraced run carries the paper's Table 5 claim for --compare.
	for _, name := range []string{"learn.manual_s", "learn.induced_s", "learn.induced_over_manual"} {
		if res.guarded[name].Value <= 0 {
			t.Errorf("table5 untraced: guarded metric %s = %v, want a positive value", name, res.guarded[name].Value)
		}
	}
	if len(res.samples["uw/induced"]) != 1 {
		t.Errorf("table5 untraced: samples of uw/induced = %v, want one per pass", res.samples["uw/induced"])
	}
}
