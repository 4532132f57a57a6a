// Package eval implements the paper's evaluation methodology (§6.1):
// precision, recall and F-measure of a learned Horn definition over
// held-out examples, and stratified k-fold cross validation.
package eval

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/pool"
)

// Metrics are the quality measures of §6.1. Precision is TP over all
// covered examples, recall is TP over all test positives, and F1 their
// harmonic mean.
type Metrics struct {
	Precision float64
	Recall    float64
	F1        float64
	TP        int
	FP        int
	FN        int
}

// Compute derives the metrics from raw counts. An empty definition
// (tp+fp = 0) has precision 0 by convention.
func Compute(tp, fp, fn int) Metrics {
	m := Metrics{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		m.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		m.Recall = float64(tp) / float64(tp+fn)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// CoverFunc answers whether a definition covers an example.
type CoverFunc func(*logic.Definition, logic.Literal) (bool, error)

// Evaluate scores a definition against held-out positives and
// negatives. mc (nil = disabled) receives eval.examples_scored and the
// eval.evaluate span.
func Evaluate(mc *metrics.Collector, covers CoverFunc, def *logic.Definition, testPos, testNeg []logic.Literal) (Metrics, error) {
	spanStart := mc.StartSpan()
	defer mc.EndSpan(metrics.SpanEval, spanStart)
	tp, fp := 0, 0
	for _, e := range testPos {
		ok, err := covers(def, e)
		if err != nil {
			return Metrics{}, err
		}
		if ok {
			tp++
		}
	}
	for _, e := range testNeg {
		ok, err := covers(def, e)
		if err != nil {
			return Metrics{}, err
		}
		if ok {
			fp++
		}
	}
	mc.Add(metrics.EvalExamples, int64(len(testPos)+len(testNeg)))
	return Compute(tp, fp, len(testPos)-tp), nil
}

// Fold is one train/test split.
type Fold struct {
	TrainPos, TrainNeg []logic.Literal
	TestPos, TestNeg   []logic.Literal
}

// KFold builds k stratified folds: positives and negatives are shuffled
// independently (preserving their ratio per fold) and partitioned.
func KFold(pos, neg []logic.Literal, k int, seed int64) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: k must be at least 2, got %d", k)
	}
	if len(pos) < k {
		return nil, fmt.Errorf("eval: %d positives cannot fill %d folds", len(pos), k)
	}
	rng := rand.New(rand.NewSource(seed))
	p := append([]logic.Literal(nil), pos...)
	n := append([]logic.Literal(nil), neg...)
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	rng.Shuffle(len(n), func(i, j int) { n[i], n[j] = n[j], n[i] })

	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		testP := slice(p, f, k)
		testN := slice(n, f, k)
		fold := Fold{TestPos: testP, TestNeg: testN}
		for g := 0; g < k; g++ {
			if g == f {
				continue
			}
			fold.TrainPos = append(fold.TrainPos, slice(p, g, k)...)
			fold.TrainNeg = append(fold.TrainNeg, slice(n, g, k)...)
		}
		folds[f] = fold
	}
	return folds, nil
}

// slice returns the f-th of k contiguous chunks.
func slice(xs []logic.Literal, f, k int) []logic.Literal {
	lo := f * len(xs) / k
	hi := (f + 1) * len(xs) / k
	return xs[lo:hi]
}

// FoldOutcome is the result of learning and scoring one fold.
type FoldOutcome struct {
	Metrics  Metrics
	Elapsed  time.Duration
	TimedOut bool
	// Cancelled reports the fold's run was interrupted by a non-deadline
	// cancellation (e.g. SIGINT); its metrics score the partial theory.
	Cancelled bool
	Clauses   int
}

// CVResult aggregates fold outcomes, reporting means as the paper does.
type CVResult struct {
	Folds []FoldOutcome
	// Mean metrics across folds.
	Precision, Recall, F1 float64
	MeanTime              time.Duration
	// TimedOut is set when any fold hit its budget (the paper reports
	// these runs as ">10h" or "-"); Cancelled when any fold was
	// cancelled.
	TimedOut  bool
	Cancelled bool
}

// Trainer learns a definition from one fold's training data and returns
// it with a cover function for scoring and run metadata. Trainers passed
// to CrossValidate with more than one worker must be safe to
// call concurrently (independent learner state per call, shared inputs
// read-only). The context carries the caller's cancellation: a cancelled
// trainer should return its partial theory with the outcome's
// TimedOut/Cancelled set rather than an error, so every started fold
// still scores.
type Trainer func(ctx context.Context, fold Fold) (*logic.Definition, CoverFunc, FoldOutcome, error)

// CrossValidate trains folds through pool.Run on up to workers
// goroutines (workers <= 0 selects runtime.GOMAXPROCS(0); 1 runs them in
// order) and averages.
// Folds are independent learning problems — each trainer call builds its
// own learner over the shared read-only database — and outcomes are
// aggregated in fold order, so the result is identical at every worker
// count; the paper's per-fold seeds derive from the fold index through
// KFold, not from scheduling. On error the first failing fold (lowest
// index) wins and no new folds are started.
//
// The ctx is handed to every trainer call; cancellation therefore
// interrupts in-flight folds mid-primitive (they return partial
// theories, flagged in their outcomes) and no new folds start once ctx
// is done. Fold scoring counts into mc (nil = disabled); the eval totals
// stay deterministic at any worker count — every started fold scores its
// whole test split, so the sum is a function of the folds alone.
func CrossValidate(ctx context.Context, folds []Fold, train Trainer, workers int, mc *metrics.Collector) (CVResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	outcomes := make([]FoldOutcome, len(folds))
	started := make([]bool, len(folds))
	errs := make([]error, len(folds))
	// Run returns the error that failed first in time; the scan below
	// reports the lowest-index one instead.
	_ = pool.Run(len(folds), workers, func(_, i int) error {
		if ctx.Err() != nil {
			return nil
		}
		started[i] = true
		def, covers, outcome, err := train(ctx, folds[i])
		if err == nil {
			outcome.Metrics, err = Evaluate(mc, covers, def, folds[i].TestPos, folds[i].TestNeg)
		}
		errs[i] = err
		outcomes[i] = outcome
		return err
	})
	for _, err := range errs {
		if err != nil {
			return CVResult{}, err
		}
	}

	var res CVResult
	for i, outcome := range outcomes {
		if !started[i] {
			// ctx was cancelled before this fold began; report the run as
			// cancelled rather than averaging in a zero outcome.
			res.Cancelled = true
			continue
		}
		res.Folds = append(res.Folds, outcome)
		res.Precision += outcome.Metrics.Precision
		res.Recall += outcome.Metrics.Recall
		res.F1 += outcome.Metrics.F1
		res.MeanTime += outcome.Elapsed
		res.TimedOut = res.TimedOut || outcome.TimedOut
		res.Cancelled = res.Cancelled || outcome.Cancelled
	}
	k := float64(len(res.Folds))
	if k > 0 {
		res.Precision /= k
		res.Recall /= k
		res.F1 /= k
		res.MeanTime = time.Duration(float64(res.MeanTime) / k)
	}
	return res, nil
}
