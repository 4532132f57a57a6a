package eval

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/logic"
)

func TestComputeMetrics(t *testing.T) {
	m := Compute(8, 2, 2)
	if m.Precision != 0.8 || m.Recall != 0.8 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.F1 < 0.799 || m.F1 > 0.801 {
		t.Fatalf("F1 = %v", m.F1)
	}
	zero := Compute(0, 0, 5)
	if zero.Precision != 0 || zero.Recall != 0 || zero.F1 != 0 {
		t.Fatalf("empty definition metrics = %+v", zero)
	}
	perfect := Compute(5, 0, 0)
	if perfect.Precision != 1 || perfect.Recall != 1 || perfect.F1 != 1 {
		t.Fatalf("perfect metrics = %+v", perfect)
	}
}

func TestQuickF1BetweenPrecisionAndRecall(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		m := Compute(int(tp), int(fp), int(fn))
		lo, hi := m.Precision, m.Recall
		if lo > hi {
			lo, hi = hi, lo
		}
		// Harmonic mean lies between min and max (or all zero).
		return m.F1 >= 0 && m.F1 <= hi+1e-9 && (m.F1 >= lo-1e-9 || m.F1 == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func examples(prefix string, n int) []logic.Literal {
	out := make([]logic.Literal, n)
	for i := range out {
		out[i] = logic.NewLiteral("t", logic.Const(fmt.Sprintf("%s%03d", prefix, i)))
	}
	return out
}

func TestKFoldPartition(t *testing.T) {
	pos := examples("p", 20)
	neg := examples("n", 41)
	folds, err := KFold(pos, neg, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seenPos := map[string]int{}
	seenNeg := map[string]int{}
	for _, f := range folds {
		// Disjoint train/test.
		train := map[string]bool{}
		for _, e := range f.TrainPos {
			train[e.String()] = true
		}
		for _, e := range f.TrainNeg {
			train[e.String()] = true
		}
		for _, e := range f.TestPos {
			if train[e.String()] {
				t.Fatalf("example %v in both train and test", e)
			}
			seenPos[e.String()]++
		}
		for _, e := range f.TestNeg {
			if train[e.String()] {
				t.Fatalf("example %v in both train and test", e)
			}
			seenNeg[e.String()]++
		}
		if len(f.TrainPos)+len(f.TestPos) != len(pos) {
			t.Fatalf("positive split sizes wrong: %d + %d", len(f.TrainPos), len(f.TestPos))
		}
	}
	// Every example is tested exactly once across folds.
	if len(seenPos) != len(pos) || len(seenNeg) != len(neg) {
		t.Fatalf("coverage: %d/%d positives, %d/%d negatives", len(seenPos), len(pos), len(seenNeg), len(neg))
	}
	for k, n := range seenPos {
		if n != 1 {
			t.Fatalf("positive %s tested %d times", k, n)
		}
	}
}

func TestKFoldErrors(t *testing.T) {
	if _, err := KFold(examples("p", 5), nil, 1, 1); err == nil {
		t.Error("k=1 must fail")
	}
	if _, err := KFold(examples("p", 2), nil, 5, 1); err == nil {
		t.Error("too few positives must fail")
	}
}

func TestKFoldDeterministic(t *testing.T) {
	pos, neg := examples("p", 12), examples("n", 24)
	a, _ := KFold(pos, neg, 3, 7)
	b, _ := KFold(pos, neg, 3, 7)
	for i := range a {
		if fmt.Sprint(a[i].TestPos) != fmt.Sprint(b[i].TestPos) {
			t.Fatal("folds must be deterministic for a fixed seed")
		}
	}
}

func TestEvaluate(t *testing.T) {
	def := &logic.Definition{Target: "t"}
	def.Add(logic.MustParseClause("t(X) :- good(X)."))
	covers := func(d *logic.Definition, e logic.Literal) (bool, error) {
		// "Covered" iff the constant starts with 'g'.
		return e.Terms[0].Name[0] == 'g', nil
	}
	pos := []logic.Literal{
		logic.NewLiteral("t", logic.Const("g1")),
		logic.NewLiteral("t", logic.Const("g2")),
		logic.NewLiteral("t", logic.Const("b1")),
	}
	neg := []logic.Literal{
		logic.NewLiteral("t", logic.Const("g3")),
		logic.NewLiteral("t", logic.Const("b2")),
	}
	m, err := Evaluate(nil, covers, def, pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP != 2 || m.FP != 1 || m.FN != 1 {
		t.Fatalf("counts = %+v", m)
	}
}

func TestCrossValidate(t *testing.T) {
	pos, neg := examples("p", 12), examples("n", 12)
	folds, err := KFold(pos, neg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A trainer whose "definition" covers every positive and no negative:
	// per-fold metrics are perfect.
	trainer := func(_ context.Context, fold Fold) (*logic.Definition, CoverFunc, FoldOutcome, error) {
		def := &logic.Definition{Target: "t"}
		covers := func(d *logic.Definition, e logic.Literal) (bool, error) {
			return e.Terms[0].Name[0] == 'p', nil
		}
		return def, covers, FoldOutcome{Elapsed: time.Second, Clauses: 1}, nil
	}
	res, err := CrossValidate(context.Background(), folds, trainer, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != 1 || res.Recall != 1 || res.F1 != 1 {
		t.Fatalf("CV result = %+v", res)
	}
	if res.MeanTime != time.Second {
		t.Fatalf("MeanTime = %v", res.MeanTime)
	}
	if len(res.Folds) != 3 {
		t.Fatalf("folds = %d", len(res.Folds))
	}
}

func TestCrossValidateTimeoutPropagates(t *testing.T) {
	pos, neg := examples("p", 4), examples("n", 4)
	folds, _ := KFold(pos, neg, 2, 1)
	trainer := func(_ context.Context, fold Fold) (*logic.Definition, CoverFunc, FoldOutcome, error) {
		covers := func(d *logic.Definition, e logic.Literal) (bool, error) { return false, nil }
		return &logic.Definition{}, covers, FoldOutcome{TimedOut: true}, nil
	}
	res, err := CrossValidate(context.Background(), folds, trainer, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("TimedOut must propagate")
	}
}
