package eval

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logic"
)

// fakeTrainer is a deterministic stand-in for learning: it "covers" a
// test example iff the example's first constant also appears among the
// fold's training positives, so metrics depend only on the fold split.
func fakeTrainer(delay time.Duration) Trainer {
	return func(_ context.Context, fold Fold) (*logic.Definition, CoverFunc, FoldOutcome, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		trained := make(map[string]bool)
		for _, e := range fold.TrainPos {
			trained[e.Terms[0].Name] = true
		}
		covers := func(_ *logic.Definition, e logic.Literal) (bool, error) {
			return trained[e.Terms[0].Name], nil
		}
		def := &logic.Definition{Target: "t"}
		return def, covers, FoldOutcome{Elapsed: time.Millisecond, Clauses: 1}, nil
	}
}

func cvExamples(n int) ([]logic.Literal, []logic.Literal) {
	var pos, neg []logic.Literal
	for i := 0; i < n; i++ {
		pos = append(pos, logic.NewLiteral("t", logic.Const(fmt.Sprintf("p%d", i%7))))
		neg = append(neg, logic.NewLiteral("t", logic.Const(fmt.Sprintf("n%d", i))))
	}
	return pos, neg
}

// TestCrossValidateParallelDeterministic: the parallel fold pool must
// reproduce the sequential result exactly — same per-fold outcomes in
// fold order, same means — at every worker count.
func TestCrossValidateParallelDeterministic(t *testing.T) {
	pos, neg := cvExamples(40)
	folds, err := KFold(pos, neg, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CrossValidate(context.Background(), folds, fakeTrainer(0), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := CrossValidate(context.Background(), folds, fakeTrainer(time.Millisecond), workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: CV result diverges:\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestCrossValidateParallelError: a failing fold surfaces its error and
// stops the pool from starting new folds.
func TestCrossValidateParallelError(t *testing.T) {
	pos, neg := cvExamples(40)
	folds, err := KFold(pos, neg, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	boom := fmt.Errorf("boom")
	trainer := func(_ context.Context, fold Fold) (*logic.Definition, CoverFunc, FoldOutcome, error) {
		if calls.Add(1) == 2 {
			return nil, nil, FoldOutcome{}, boom
		}
		return fakeTrainer(0)(context.Background(), fold)
	}
	if _, err := CrossValidate(context.Background(), folds, trainer, 2, nil); err == nil {
		t.Fatal("expected the failing fold's error to surface")
	}
}

// TestCrossValidateLowestIndexErrorWins pins the documented rule that
// when several folds fail, the lowest-index fold's error is returned —
// not the one that failed first in time.
func TestCrossValidateLowestIndexErrorWins(t *testing.T) {
	pos, neg := cvExamples(40)
	folds, err := KFold(pos, neg, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	foldIndex := func(fold Fold) int {
		for i := range folds {
			if &folds[i].TestPos[0] == &fold.TestPos[0] {
				return i
			}
		}
		t.Fatal("trainer got a fold CrossValidate was not given")
		return -1
	}
	fail1, fail3 := fmt.Errorf("fold 1 failed"), fmt.Errorf("fold 3 failed")
	trainer := func(_ context.Context, fold Fold) (*logic.Definition, CoverFunc, FoldOutcome, error) {
		switch foldIndex(fold) {
		case 1:
			time.Sleep(50 * time.Millisecond)
			return nil, nil, FoldOutcome{}, fail1
		case 3:
			return nil, nil, FoldOutcome{}, fail3
		}
		return fakeTrainer(0)(context.Background(), fold)
	}
	if _, err := CrossValidate(context.Background(), folds, trainer, 5, nil); err != fail1 {
		t.Fatalf("CrossValidate = %v, want fold 1's error %v", err, fail1)
	}
}
