package autobias

import (
	"context"
	"strings"
	"testing"
	"time"
)

func uwTask(t testing.TB, scale float64) Task {
	t.Helper()
	ds, err := GenerateDataset("uw", scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	return TaskFromDataset(ds)
}

func TestParseExample(t *testing.T) {
	e, err := ParseExample("advisedBy(juan,sarita)")
	if err != nil {
		t.Fatal(err)
	}
	if e.Predicate != "advisedBy" || len(e.Terms) != 2 {
		t.Fatalf("example = %v", e)
	}
	if _, err := ParseExample("advisedBy(X,sarita)"); err == nil {
		t.Error("non-ground example must fail")
	}
	if _, err := ParseExample("a(b) :- c(d)"); err == nil {
		t.Error("clause with body must fail")
	}
}

func TestBuildBiasMethods(t *testing.T) {
	task := uwTask(t, 0.2)
	for _, m := range Methods() {
		b, _, err := BuildBias(task, Options{Method: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if b.Size() == 0 {
			t.Fatalf("%s: empty bias", m)
		}
		if _, err := b.Compile(task.DB.Schema(), task.Target, len(task.TargetAttrs)); err != nil {
			t.Fatalf("%s: compile: %v", m, err)
		}
	}
	// Manual without Task.Manual must fail.
	task2 := task
	task2.Manual = nil
	if _, _, err := BuildBias(task2, Options{Method: MethodManual}); err == nil {
		t.Error("manual without bias must fail")
	}
	if _, _, err := BuildBias(task, Options{Method: "bogus"}); err == nil {
		t.Error("unknown method must fail")
	}
}

func TestAutoBiasLargerThanManual(t *testing.T) {
	// §6.2: AutoBias generates roughly 30% more definitions than the
	// expert. Check the induced bias is at least as large as manual.
	task := uwTask(t, 0.3)
	auto, _, err := BuildBias(task, Options{Method: MethodAutoBias})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Size() <= task.Manual.Size() {
		t.Errorf("induced bias (%d defs) should exceed manual (%d defs)", auto.Size(), task.Manual.Size())
	}
}

func TestLearnEndToEnd(t *testing.T) {
	task := uwTask(t, 0.25)
	res, err := Learn(task, Options{Method: MethodAutoBias, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Definition.Len() == 0 {
		t.Fatal("no clauses learned")
	}
	if res.Bias == nil || res.Graph == nil {
		t.Fatal("autobias run must report bias and type graph")
	}
	m, err := res.Evaluate(task.Pos, task.Neg)
	if err != nil {
		t.Fatal(err)
	}
	if m.F1 < 0.5 {
		t.Errorf("training F1 = %.2f; expected a useful definition:\n%s", m.F1, res.Definition)
	}
}

func TestLearnManualEndToEnd(t *testing.T) {
	task := uwTask(t, 0.25)
	res, err := Learn(task, Options{Method: MethodManual, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Definition.Len() == 0 {
		t.Fatal("no clauses learned with manual bias")
	}
	m, err := res.Evaluate(task.Pos, task.Neg)
	if err != nil {
		t.Fatal(err)
	}
	if m.F1 < 0.5 {
		t.Errorf("training F1 = %.2f:\n%s", m.F1, res.Definition)
	}
}

func TestLearnAlephEndToEnd(t *testing.T) {
	task := uwTask(t, 0.25)
	res, err := Learn(task, Options{Method: MethodAleph, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Aleph may learn less accurate definitions but must terminate and
	// produce a scorable result.
	if _, err := res.Evaluate(task.Pos, task.Neg); err != nil {
		t.Fatal(err)
	}
}

func TestLearnTimeoutSurfaces(t *testing.T) {
	task := uwTask(t, 0.25)
	res, err := Learn(task, Options{Method: MethodManual, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("timeout must surface")
	}
}

func TestCrossValidateUW(t *testing.T) {
	if testing.Short() {
		t.Skip("cross validation is slow")
	}
	task := uwTask(t, 0.25)
	cv, err := CrossValidate(task, Options{Method: MethodAutoBias, Seed: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Folds) != 3 {
		t.Fatalf("folds = %d", len(cv.Folds))
	}
	if cv.F1 <= 0.3 {
		t.Errorf("cross-validated F1 = %.2f; expected generalization", cv.F1)
	}
}

func TestEvaluateExactAgreesOnCleanConcept(t *testing.T) {
	ds, err := GenerateDataset("imdb", 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	task := TaskFromDataset(ds)
	res, err := Learn(task, Options{Method: MethodManual, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := res.EvaluateExact(task.Pos, task.Neg)
	if err != nil {
		t.Fatal(err)
	}
	// IMDb's concept is noise-free and short; the exact evaluator must
	// score the learned definition perfectly.
	if exact.F1 < 0.99 {
		t.Fatalf("exact F1 = %.2f for:\n%s", exact.F1, res.Definition)
	}
	// The subsumption-based estimate must be close to the exact one.
	approx, err := res.Evaluate(task.Pos, task.Neg)
	if err != nil {
		t.Fatal(err)
	}
	if approx.F1 < exact.F1-0.2 {
		t.Errorf("subsumption F1 %.2f far below exact %.2f", approx.F1, exact.F1)
	}
}

func TestExecuteClause(t *testing.T) {
	ds, err := GenerateDataset("imdb", 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	clause, err := ParseClause("dramaDirector(P) :- directed(P,M), genre(M,g_drama).")
	if err != nil {
		t.Fatal(err)
	}
	facts, err := ExecuteClause(ds.DB, clause, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) == 0 {
		t.Fatal("the true IMDb rule must derive facts")
	}
	for _, f := range facts {
		if f.Predicate != "dramaDirector" {
			t.Fatalf("derived fact %v has wrong predicate", f)
		}
	}
}

func TestDiscoverINDsAndRenderGraph(t *testing.T) {
	task := uwTask(t, 0.2)
	inds, err := DiscoverINDs(context.Background(), task.DB, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inds) == 0 {
		t.Fatal("no INDs discovered on UW")
	}
	_, graph, _, err := InduceBias(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTypeGraph(graph, task)
	if !strings.Contains(out, "publication[person]") {
		t.Errorf("rendered graph missing attributes:\n%s", out)
	}
}
