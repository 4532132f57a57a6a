package autobias

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestLearnTimeoutAnytime is the headline robustness acceptance test:
// on a task whose full learning run takes far longer than the budget, a
// 50ms timeout must return promptly (the deadline reaches into the
// subsumption and bottom-construction inner loops, not just the clause
// boundary), flag TimedOut, carry a non-nil partial definition, and
// populate the degradation report.
func TestLearnTimeoutAnytime(t *testing.T) {
	// Full-scale UW takes several seconds to learn — pathological
	// relative to a 50ms budget.
	task := uwTask(t, 1)
	start := time.Now()
	res, err := Learn(task, Options{Method: MethodManual, Seed: 2, Timeout: 50 * time.Millisecond})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("timeout must degrade gracefully, got error %v", err)
	}
	// The contract is return within ~2x the budget; allow scheduler
	// slack on loaded CI machines.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("50ms budget returned after %v; deadline not reaching inner loops", elapsed)
	}
	if !res.TimedOut {
		t.Fatal("TimedOut must be set")
	}
	if res.Cancelled {
		t.Fatal("a deadline is TimedOut, not Cancelled")
	}
	if res.Definition == nil {
		t.Fatal("anytime contract: Definition must be non-nil (possibly empty)")
	}
	if res.Report == nil {
		t.Fatal("Report must be populated on a timed-out run")
	}
	if !res.Degraded() {
		t.Fatalf("timed-out run must report degradation, got %q", res.Report.Summary())
	}
	// A partial theory, when present, must still be scorable.
	if res.Definition.Len() > 0 {
		if _, err := res.Evaluate(task.Pos, task.Neg); err != nil {
			t.Fatalf("partial definition not scorable: %v", err)
		}
	}
}

// TestLearnCtxCancelAnytime: caller-driven cancellation surfaces as
// Cancelled (not TimedOut) with the same anytime guarantees.
func TestLearnCtxCancelAnytime(t *testing.T) {
	task := uwTask(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := LearnCtx(ctx, task, Options{Method: MethodManual, Seed: 2})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancellation must degrade gracefully, got error %v", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancel took %v to take effect", elapsed)
	}
	if !res.Cancelled {
		t.Fatal("Cancelled must be set")
	}
	if res.TimedOut {
		t.Fatal("an explicit cancel is Cancelled, not TimedOut")
	}
	if res.Definition == nil {
		t.Fatal("anytime contract: Definition must be non-nil")
	}
	if res.Report == nil || !res.Degraded() {
		t.Fatal("cancelled run must carry a degradation report")
	}
}

// TestLearnCleanRunNotDegraded: an uninterrupted run reports no
// degradation — Degraded() is the CLI's exit-code signal, so false
// positives would fail healthy pipelines.
func TestLearnCleanRunNotDegraded(t *testing.T) {
	task := uwTask(t, 0.25)
	res, err := Learn(task, Options{Method: MethodManual, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || res.Cancelled {
		t.Fatalf("clean run flagged interrupted: %+v", res)
	}
	if res.Report == nil {
		t.Fatal("Report must be non-nil even on clean runs")
	}
	if res.Degraded() {
		t.Fatalf("clean run reported degraded: %q", res.Report.Summary())
	}
}

// TestBudgetStarvedRunCountedOnce: a subsumption budget far too small
// for the task exhausts on many coverage tests. That is §5's
// approximation working as designed, so it is counted once — by the
// subsume.budget_exhausted gauge — and the run's Report, which keeps
// only what changed the run, holds no event for it.
func TestBudgetStarvedRunCountedOnce(t *testing.T) {
	task := uwTask(t, 0.25)
	res, err := Learn(task, Options{Method: MethodManual, Seed: 2, SubsumeMaxNodes: 3, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Gauges["subsume.budget_exhausted"]; got == 0 {
		t.Fatal("a 3-node budget must exhaust on some subsumption test")
	}
	if s := res.Report.Summary(); strings.Contains(s, "subsume") || len(res.Report.Events()) != 0 {
		t.Fatalf("budget exhaustion reached the report: %q", s)
	}
	if res.Degraded() {
		t.Fatalf("budget-starved run reported degraded: %q", res.Report.Summary())
	}
}
