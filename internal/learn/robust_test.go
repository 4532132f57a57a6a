package learn

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bottom"
	"repro/internal/faultpoint"
	"repro/internal/logic"
	"repro/internal/report"
	"repro/internal/subsume"
)

// learnWith runs a full learning pass at the given worker count and
// returns the definition string (the bit-identity witness) and stats.
func learnWith(t *testing.T, workers int, seed int64) (string, *Stats) {
	t.Helper()
	d, pos, neg := uwWorld(t, 12, 8)
	c := uwLearnBias(t, d)
	l := New(d, c, Options{Bottom: bottom.Options{Depth: 1}, Seed: seed, Workers: workers})
	def, stats, err := l.Learn(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	return def.String(), stats
}

// TestWorkerPanicIsolatedDeterministic: a panic injected into one
// example's coverage test is recovered, isolated to that example, and
// the learned theory stays bit-identical at 1, 4, and 8 workers.
func TestWorkerPanicIsolatedDeterministic(t *testing.T) {
	d, pos, neg := uwWorld(t, 12, 8)
	_ = d
	// Panic on one positive example's coverage site. The site name keys
	// on the example, so the fault fires for that example wherever it is
	// scheduled — the isolation decision is a function of the pair, not
	// of the worker that hits it.
	victim := pos[2].String()
	defs := make(map[int]string)
	var reports []*report.Report
	for _, workers := range []int{1, 4, 8} {
		faultpoint.Reset()
		faultpoint.Enable("coverage.test:"+victim, faultpoint.Fault{Panic: "injected worker panic"})

		d2, pos2, neg2 := uwWorld(t, 12, 8)
		c2 := uwLearnBias(t, d2)
		l := New(d2, c2, Options{Bottom: bottom.Options{Depth: 1}, Seed: 1, Workers: workers})
		def, stats, err := l.Learn(pos2, neg2)
		faultpoint.Reset()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		defs[workers] = def.String()
		reports = append(reports, stats.Report)
		if stats.TimedOut || stats.Cancelled {
			t.Fatalf("workers=%d: panic must not look like cancellation: %+v", workers, stats)
		}
		if stats.Report.Count(report.PanicRecovered) == 0 {
			t.Fatalf("workers=%d: recovered panic not reported: %s", workers, stats.Report.Summary())
		}
	}
	if defs[4] != defs[1] || defs[8] != defs[1] {
		t.Fatalf("theories diverge under injected panics:\n1: %s\n4: %s\n8: %s", defs[1], defs[4], defs[8])
	}
	for i, r := range reports {
		for _, ev := range r.Events() {
			if ev.Kind == report.PanicRecovered && ev.Example != victim {
				t.Fatalf("report %d isolates the wrong example: %+v", i, ev)
			}
		}
	}
	_, _ = pos, neg
}

// TestPanicIsolationMatchesCleanRunExceptVictim: with the victim's
// coverage forced to "not covered", the rest of the memo table must be
// unaffected — spot-check by comparing against a clean run's coverage of
// the other examples.
func TestPanicIsolationMatchesCleanRunExceptVictim(t *testing.T) {
	d, pos, _ := uwWorld(t, 10, 6)
	c := uwLearnBias(t, d)
	copub := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).")

	clean := NewCoverage(bottom.NewBuilder(d, c, bottom.Options{Depth: 1}), subsume.Options{})
	want := make(map[string]bool)
	for _, e := range pos {
		ok, err := clean.Covers(context.Background(), copub, e)
		if err != nil {
			t.Fatal(err)
		}
		want[e.String()] = ok
	}

	victim := pos[1].String()
	defer faultpoint.Reset()
	faultpoint.Enable("coverage.test:"+victim, faultpoint.Fault{Panic: "boom"})
	faulted := NewCoverage(bottom.NewBuilder(d, c, bottom.Options{Depth: 1}), subsume.Options{})
	rep := report.New()
	faulted.SetReport(rep)
	for _, e := range pos {
		ok, err := faulted.Covers(context.Background(), copub, e)
		if err != nil {
			t.Fatal(err)
		}
		expect := want[e.String()]
		if e.String() == victim {
			expect = false // isolated: scored not-covered
		}
		if ok != expect {
			t.Fatalf("Covers(%v) = %v, want %v", e, ok, expect)
		}
	}
	if rep.Count(report.PanicRecovered) != 1 {
		t.Fatalf("want exactly 1 recovered panic, got summary %q", rep.Summary())
	}
}

// TestCountCtxCancelledMidCoverage: cancelling during a Count abandons
// it with the ctx error and records the degradation.
func TestCountCtxCancelledMidCoverage(t *testing.T) {
	d, pos, _ := uwWorld(t, 10, 6)
	c := uwLearnBias(t, d)
	copub := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).")

	// A long injected delay on one example's coverage site stands in for
	// a slow subsumption test; the ctx deadline must cut through it.
	defer faultpoint.Reset()
	faultpoint.Enable("coverage.test:"+pos[3].String(), faultpoint.Fault{Delay: 10 * time.Second})

	ce := NewCoverage(bottom.NewBuilder(d, c, bottom.Options{Depth: 1}), subsume.Options{})
	rep := report.New()
	ce.SetReport(rep)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ce.CountMany(ctx, []*logic.Clause{copub}, pos)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("cancellation took %v", e)
	}
	if rep.Count(report.CoverageAbandoned) == 0 {
		t.Fatalf("abandoned count not reported: %s", rep.Summary())
	}
}

// TestCountCtxCancelledMidCoverageParallel: same through the worker pool.
func TestCountCtxCancelledMidCoverageParallel(t *testing.T) {
	d, pos, _ := uwWorld(t, 10, 6)
	c := uwLearnBias(t, d)
	copub := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).")

	defer faultpoint.Reset()
	faultpoint.Enable("coverage.test:"+pos[0].String(), faultpoint.Fault{Delay: 10 * time.Second})

	ce := NewCoverage(bottom.NewBuilder(d, c, bottom.Options{Depth: 1}), subsume.Options{})
	ce.SetWorkers(4)
	rep := report.New()
	ce.SetReport(rep)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ce.CountMany(ctx, []*logic.Clause{copub}, pos)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("parallel cancellation took %v", e)
	}
}

// TestLearnCtxCancelMidBottomBuild: cancellation that lands inside BC
// construction degrades gracefully — Learn returns the theory so far
// with Cancelled set, and the bottom-build abandonment is on the report.
func TestLearnCtxCancelMidBottomBuild(t *testing.T) {
	d, pos, neg := uwWorld(t, 12, 8)
	c := uwLearnBias(t, d)

	defer faultpoint.Reset()
	// Stall the 3rd BC build for a long time; cancel while it sleeps.
	faultpoint.Enable("bottom.construct", faultpoint.Fault{Delay: 10 * time.Second, After: 3, Times: 1})

	l := New(d, c, Options{Bottom: bottom.Options{Depth: 1}, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	def, stats, err := l.LearnCtx(ctx, pos, neg)
	if err != nil {
		t.Fatalf("cancellation must be graceful, got error %v", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("cancellation took %v", e)
	}
	if !stats.Cancelled {
		t.Fatalf("stats must record cancellation: %+v", stats)
	}
	if def == nil {
		t.Fatal("anytime contract: definition must be non-nil (possibly empty)")
	}
	if !stats.Report.Degraded() {
		t.Fatalf("report must mark the run degraded: %s", stats.Report.Summary())
	}
}

// TestLearnStatsReportNeverNil: a clean run still carries an (empty)
// report.
func TestLearnStatsReportNeverNil(t *testing.T) {
	_, stats := learnWith(t, 1, 1)
	if stats.Report == nil {
		t.Fatal("Stats.Report must never be nil")
	}
	if stats.Report.Degraded() {
		t.Fatalf("clean run reported degraded: %s", stats.Report.Summary())
	}
	if stats.TimedOut || stats.Cancelled {
		t.Fatalf("clean run flagged interrupted: %+v", stats)
	}
}
