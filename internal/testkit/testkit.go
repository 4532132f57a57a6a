// Package testkit is the differential test harness for the learning
// pipeline: it runs the same learning problem under different execution
// strategies — worker counts, and cancelled-then-resumed — and reports
// any divergence in the learned theory or in the deterministic portion
// of the run's instrumentation.
//
// The harness exists because the system's headline concurrency claim
// (DESIGN.md, "Concurrency architecture") is that the Workers knob
// changes wall-clock only: the theory, every deterministic counter
// (bottom.*, ind.*, learn.*, coverage.bc_built, eval.examples_scored)
// and the coverage engine's test totals (exactGauges) must be
// bit-identical at any worker count. The rest of Gauges — per-worker
// utilization, serving and shard traffic — legitimately varies with
// scheduling and is not compared.
//
// For cancelled-then-resumed runs the invariant is necessarily weaker:
// the interrupted clause search is redone from scratch on resume, so
// effort counters (learn.rounds, learn.candidates, bottom.*) double-count
// that work. What must survive the stitch is the output: the partial
// theory plus the resumed theory, in order, is bit-identical to the
// uninterrupted theory, and the kept-clause totals agree.
package testkit

import (
	"context"
	"fmt"
	"strings"

	autobias "repro"
	"repro/internal/faultpoint"
	"repro/internal/metrics"
)

// Leg is one instrumented execution of a learning problem.
type Leg struct {
	Label     string
	Theory    string
	Clauses   int
	Snapshot  autobias.MetricsSnapshot
	TimedOut  bool
	Cancelled bool
	// Result keeps the full facade result for follow-up queries (e.g.
	// per-example coverage when computing a resume's remaining positives).
	Result *autobias.Result
}

// Run learns the task once with a fresh collector and returns the leg.
// The caller's opts are taken as-is except for instrumentation, which is
// always enabled so legs are comparable.
func Run(ctx context.Context, task autobias.Task, opts autobias.Options, label string) (Leg, error) {
	opts.Collector = autobias.NewMetricsCollector()
	res, err := autobias.LearnCtx(ctx, task, opts)
	if err != nil {
		return Leg{}, fmt.Errorf("testkit: leg %s: %w", label, err)
	}
	return Leg{
		Label:     label,
		Theory:    res.Definition.String(),
		Clauses:   res.Definition.Len(),
		Snapshot:  *res.Metrics,
		TimedOut:  res.TimedOut,
		Cancelled: res.Cancelled,
		Result:    res,
	}, nil
}

// exactGauges are the gauges whose totals the inputs alone fix: every
// coverage count is exact, so the engine runs the same tests, probes
// its ground-BC cache the same number of times and searches the same
// subsumption nodes at every worker count. A shard leg's tests run on
// its workers, so only worker legs compare them.
var exactGauges = []string{
	"coverage.tests", "coverage.memo_hits", "coverage.bc_cache_hits",
	"subsume.tests", "subsume.nodes", "subsume.budget_exhausted",
	"subsume.probe_decided", "subsume.refuted",
}

// Differential runs the task once per worker count and compares every
// leg against the first: theories must be bit-identical, and the
// deterministic counter/histogram totals and the exactGauges equal. The
// returned diffs are human-readable divergence lines, empty when the
// runs agree.
func Differential(ctx context.Context, task autobias.Task, opts autobias.Options, workers []int) ([]Leg, []string, error) {
	if len(workers) < 2 {
		return nil, nil, fmt.Errorf("testkit: differential needs at least 2 worker counts, got %v", workers)
	}
	legs := make([]Leg, 0, len(workers))
	for _, w := range workers {
		o := opts
		o.Workers = w
		leg, err := Run(ctx, task, o, fmt.Sprintf("workers=%d", w))
		if err != nil {
			return nil, nil, err
		}
		legs = append(legs, leg)
	}
	var diffs []string
	ref := legs[0]
	for _, leg := range legs[1:] {
		if leg.Theory != ref.Theory {
			diffs = append(diffs, fmt.Sprintf("%s vs %s: theories diverge:\n--- %s\n%s\n--- %s\n%s",
				ref.Label, leg.Label, ref.Label, ref.Theory, leg.Label, leg.Theory))
		}
		for _, d := range ref.Snapshot.DeterministicDiff(leg.Snapshot) {
			diffs = append(diffs, fmt.Sprintf("%s vs %s: %s", ref.Label, leg.Label, d))
		}
		for _, name := range exactGauges {
			if a, b := ref.Snapshot.Gauges[name], leg.Snapshot.Gauges[name]; a != b {
				diffs = append(diffs, fmt.Sprintf("%s vs %s: gauge %s: %d != %d", ref.Label, leg.Label, name, a, b))
			}
		}
	}
	return legs, diffs, nil
}

// CancelResumeReport is the outcome of a cancelled-then-resumed replay.
type CancelResumeReport struct {
	Reference Leg
	Partial   Leg
	Resumed   Leg
	// Stitched is the partial theory followed by the resumed theory.
	Stitched string
	// Diffs is empty when the stitch reproduces the reference bit for bit
	// and the kept-clause totals agree.
	Diffs []string
}

// cancelSite is the faultpoint every bottom-clause construction passes
// through; injecting context.Canceled there makes the learner take its
// graceful-cancellation path at an exact, scheduler-independent point.
const cancelSite = "bottom.construct"

// CancelResume verifies the anytime contract end to end: a run cancelled
// mid-flight plus a second run over the positives its partial theory
// left uncovered must together produce exactly the theory of an
// uninterrupted run.
//
// The cancellation is injected deterministically: the cancelAfter-th
// bottom-clause construction fails with context.Canceled (via
// faultpoint), which the learner treats as a graceful cancel. Pick
// cancelAfter between 2 and the reference run's bottom.constructions
// total so the cut lands mid-run; the harness rejects a cancel leg that
// finished clean (nothing was interrupted) or learned nothing (the
// resume would trivially redo the whole run).
//
// The resumed leg re-learns with the same options over the remaining
// positives, so the learner's minimum-criterion threshold — which
// depends on the positive-example count crossing 10 — must not differ
// between legs; the harness enforces the safe precondition
// len(task.Pos) < 10 (both legs then use the same threshold).
//
// ref, when non-nil, is a previously-computed uninterrupted leg of the
// same (task, opts) — callers scanning several cut points pass their
// probe run to avoid re-learning the reference each time.
//
// CancelResume arms and resets package-global fault injection, so it
// must not run concurrently with other faultpoint users.
func CancelResume(ctx context.Context, task autobias.Task, opts autobias.Options, cancelAfter int, ref *Leg) (CancelResumeReport, error) {
	if len(task.Pos) >= 10 {
		return CancelResumeReport{}, fmt.Errorf("testkit: cancel-resume needs < 10 positives (minimum-criterion threshold must match across legs), got %d", len(task.Pos))
	}
	if cancelAfter < 2 {
		return CancelResumeReport{}, fmt.Errorf("testkit: cancelAfter must be >= 2 (1 would cancel before any work), got %d", cancelAfter)
	}
	rep := CancelResumeReport{}
	var err error
	if ref != nil {
		rep.Reference = *ref
	} else {
		rep.Reference, err = Run(ctx, task, opts, "reference")
		if err != nil {
			return rep, err
		}
	}

	// Cancel leg: the cancelAfter-th construction — and only it — fails.
	// Times=1 keeps the window to a single hit so the run's remaining
	// constructions (final coverage accounting) proceed normally.
	faultpoint.Enable(cancelSite, faultpoint.Fault{Err: context.Canceled, After: cancelAfter, Times: 1})
	rep.Partial, err = Run(ctx, task, opts, "cancelled")
	faultpoint.Reset()
	if err != nil {
		return rep, err
	}
	if !rep.Partial.Cancelled {
		return rep, fmt.Errorf("testkit: cancel leg was not interrupted (cancelAfter=%d exceeds the run's %d constructions?)", cancelAfter, constructions(rep.Reference.Snapshot))
	}
	if rep.Partial.Clauses == 0 {
		return rep, fmt.Errorf("testkit: cancel leg learned no clauses before the cut (cancelAfter=%d too early); resume would trivially redo the whole run", cancelAfter)
	}

	// Resume over the positives the partial theory does not cover, in
	// their original order (the sequential-covering loop preserves it).
	var remaining []autobias.Example
	for _, e := range task.Pos {
		ok, err := rep.Partial.Result.Covers(e)
		if err != nil {
			return rep, fmt.Errorf("testkit: scoring partial theory: %w", err)
		}
		if !ok {
			remaining = append(remaining, e)
		}
	}
	resumeTask := task
	resumeTask.Pos = remaining
	if len(remaining) == 0 {
		// The partial theory already covers everything; the resumed leg is
		// empty by construction.
		rep.Resumed = Leg{Label: "resumed", Snapshot: autobias.MetricsSnapshot{}}
	} else {
		rep.Resumed, err = Run(ctx, resumeTask, opts, "resumed")
		if err != nil {
			return rep, err
		}
	}

	rep.Stitched = stitch(rep.Partial.Theory, rep.Resumed.Theory)
	if rep.Stitched != rep.Reference.Theory {
		rep.Diffs = append(rep.Diffs, fmt.Sprintf("stitched theory diverges from reference:\n--- reference\n%s\n--- stitched (cancelled after %d constructions + resumed over %d positives)\n%s",
			rep.Reference.Theory, cancelAfter, len(remaining), rep.Stitched))
	}
	if got, want := rep.Partial.Clauses+rep.Resumed.Clauses, rep.Reference.Clauses; got != want {
		rep.Diffs = append(rep.Diffs, fmt.Sprintf("kept-clause totals diverge: partial %d + resumed %d != reference %d",
			rep.Partial.Clauses, rep.Resumed.Clauses, want))
	}
	return rep, nil
}

// stitch concatenates two rendered theories, tolerating empty legs.
func stitch(a, b string) string {
	a, b = strings.TrimRight(a, "\n"), strings.TrimRight(b, "\n")
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "\n" + b
}

func constructions(s autobias.MetricsSnapshot) int64 {
	return s.Counters[metrics.BottomConstructions.Name()]
}
