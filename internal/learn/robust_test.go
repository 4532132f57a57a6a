package learn

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/bottom"
	"repro/internal/faultpoint"
	"repro/internal/logic"
	"repro/internal/metrics"
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

// TestFetchPanicIsolatedPerPair: a ground-BC build that panics while a
// resolve fetches its example's entry is isolated to that example: each
// of its pairs scores "not covered" and records one recovered panic,
// every other pair keeps its clean verdict, and the fetch is made once —
// the tests reuse its outcome instead of building again.
func TestFetchPanicIsolatedPerPair(t *testing.T) {
	d, pos, neg := uwWorld(t, 10, 6)
	c := uwLearnBias(t, d)
	all := append(append([]Example(nil), pos...), neg...)
	clauses := []*logic.Clause{
		logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X)."),
		logic.MustParseClause("advisedBy(X,Y) :- publication(Z,Y)."),
	}
	clean, err := NewCoverage(bottom.NewBuilder(d, c, bottom.Options{Depth: 1}), subsume.Options{}).ResolveLocal(context.Background(), clauses, all)
	if err != nil {
		t.Fatal(err)
	}

	victim := 1
	defer faultpoint.Reset()
	faultpoint.Enable("bottom.construct:"+all[victim].String(), faultpoint.Fault{Panic: "boom"})
	for _, workers := range []int{1, 4} {
		ce := NewCoverage(bottom.NewBuilder(d, c, bottom.Options{Depth: 1}), subsume.Options{})
		ce.SetWorkers(workers)
		rep := report.New()
		ce.SetReport(rep)
		got, err := ce.ResolveLocal(context.Background(), clauses, all)
		if err != nil {
			t.Fatal(err)
		}
		for i := range clauses {
			if !clean[i][victim].Covered {
				t.Fatalf("fixture: clause %d must cover the victim in a clean run", i)
			}
			for j := range all {
				if want := clean[i][j].Covered && j != victim; got[i][j].Covered != want {
					t.Errorf("workers=%d: clause %d on %v = %v, want %v", workers, i, all[j], got[i][j].Covered, want)
				}
			}
		}
		if n := rep.Count(report.PanicRecovered); n != len(clauses) {
			t.Errorf("workers=%d: %d recovered panics, want one per pair (%d): %s", workers, n, len(clauses), rep.Summary())
		}
		for _, ev := range rep.Events() {
			if ev.Kind == report.PanicRecovered && ev.Example != all[victim].String() {
				t.Errorf("workers=%d: panic isolated to the wrong example: %+v", workers, ev)
			}
		}
	}
}

// TestGeneralizePanicIsolatedPerPair: an armg round whose victim
// example's ground-BC build panics is not aborted. Each of the victim's
// pairs comes back nil ("no generalization") with one recovered panic,
// every other pair equals a clean engine's result, and the nil is
// memoized: the round again answers from the memo and records nothing.
// A panic in the pass itself is isolated the same way.
func TestGeneralizePanicIsolatedPerPair(t *testing.T) {
	d, pos, _ := uwWorld(t, 12, 8)
	c := uwLearnBias(t, d)
	var clauses []*logic.Clause
	for _, e := range []Example{pos[0], pos[2]} {
		bc, err := bottom.NewBuilder(d, c, bottom.Options{Depth: 1}).Construct(e)
		if err != nil {
			t.Fatal(err)
		}
		clauses = append(clauses, bc.PruneNotHeadConnected())
	}
	newEngine := func(workers int) (*CoverageEngine, *report.Report) {
		ce := NewCoverage(bottom.NewBuilder(d, c, bottom.Options{Depth: 1}), subsume.Options{})
		ce.SetWorkers(workers)
		rep := report.New()
		ce.SetReport(rep)
		return ce, rep
	}
	cleanEngine, _ := newEngine(1)
	clean, err := cleanEngine.GeneralizeManyCtx(context.Background(), clauses, pos)
	if err != nil {
		t.Fatal(err)
	}

	victim := 1
	defer faultpoint.Reset()
	faultpoint.Enable("bottom.construct:"+pos[victim].String(), faultpoint.Fault{Panic: "boom"})
	for _, workers := range []int{1, 4} {
		ce, rep := newEngine(workers)
		for round := 0; round < 2; round++ {
			got, err := ce.GeneralizeManyCtx(context.Background(), clauses, pos)
			if err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, round, err)
			}
			for slot := range got {
				i, j := slot/len(pos), slot%len(pos)
				want := fmt.Sprint(clean[slot])
				if j == victim {
					if clean[slot] == nil {
						t.Fatalf("fixture: clause %d must generalize against the victim in a clean run", i)
					}
					want = fmt.Sprint((*logic.Clause)(nil))
				}
				if g := fmt.Sprint(got[slot]); g != want {
					t.Errorf("workers=%d round %d: clause %d on %v = %s, want %s", workers, round, i, pos[j], g, want)
				}
			}
			if n := rep.Count(report.PanicRecovered); n != len(clauses) {
				t.Errorf("workers=%d round %d: %d recovered panics, want one per victim pair (%d): %s", workers, round, n, len(clauses), rep.Summary())
			}
		}
		for _, ev := range rep.Events() {
			if ev.Kind == report.PanicRecovered && ev.Example != pos[victim].String() {
				t.Errorf("workers=%d: panic isolated to the wrong example: %+v", workers, ev)
			}
		}
	}

	faultpoint.Reset()
	faultpoint.Enable("subsume.check", faultpoint.Fault{Panic: "pass boom"})
	ce, rep := newEngine(1)
	got, err := ce.GeneralizeManyCtx(context.Background(), clauses, pos)
	if err != nil {
		t.Fatalf("panicking passes aborted the round: %v", err)
	}
	for slot, cand := range got {
		if cand != nil {
			t.Fatalf("slot %d: a panicking pass generalized to %v", slot, cand)
		}
	}
	if n := rep.Count(report.PanicRecovered); n != len(got) {
		t.Fatalf("%d recovered panics for %d panicking passes: %s", n, len(got), rep.Summary())
	}
}

// TestBuildPanicNeverFailsLearn: a bottom.construct:<example> panic is
// isolated to its example wherever the build runs — the seed's
// variabilized clause, an armg round's prefetch, a coverage resolve —
// so for every positive of the toy task as the victim, Learn returns
// without error and without a panic escaping, the theory is identical at
// 1, 4 and 8 workers, and every recovered panic names the victim.
func TestBuildPanicNeverFailsLearn(t *testing.T) {
	_, pos, _ := uwWorld(t, 12, 8)
	defer faultpoint.Reset()
	for _, victim := range pos {
		key := victim.String()
		defs := make(map[int]string)
		for _, workers := range []int{1, 4, 8} {
			faultpoint.Reset()
			faultpoint.Enable("bottom.construct:"+key, faultpoint.Fault{Panic: "injected build panic"})
			var stats *Stats
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("victim %s, workers=%d: panic escaped Learn: %v", key, workers, r)
					}
				}()
				defs[workers], stats = learnWith(t, workers, 1)
			}()
			if n := stats.Report.Count(report.PanicRecovered); n == 0 {
				t.Fatalf("victim %s, workers=%d: no recovered panic reported: %s", key, workers, stats.Report.Summary())
			}
			for _, ev := range stats.Report.Events() {
				if ev.Kind == report.PanicRecovered && ev.Example != key {
					t.Fatalf("victim %s, workers=%d: panic isolated to the wrong example: %+v", key, workers, ev)
				}
			}
		}
		if defs[4] != defs[1] || defs[8] != defs[1] {
			t.Fatalf("victim %s: theories diverge across workers:\n1: %s\n4: %s\n8: %s", key, defs[1], defs[4], defs[8])
		}
	}
}

// TestResolveProbesCacheOncePerExample: a resolve's tests reuse the
// entries its fetch pass read, so a warm cache is probed once per missed
// example, however many clauses miss on it.
func TestResolveProbesCacheOncePerExample(t *testing.T) {
	d, pos, neg := uwWorld(t, 10, 6)
	all := append(append([]Example(nil), pos...), neg...)
	ce := NewCoverage(bottom.NewBuilder(d, uwLearnBias(t, d), bottom.Options{Depth: 1}), subsume.Options{})
	mc := metrics.New()
	ce.SetMetrics(mc)
	if _, err := ce.CountMany(context.Background(), []*logic.Clause{logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X).")}, all); err != nil {
		t.Fatal(err)
	}
	if hits := mc.Counter(metrics.CoverageBCCacheHits); hits != 0 {
		t.Fatalf("cold resolve: %d cache hits, want 0", hits)
	}
	clauses := []*logic.Clause{
		logic.MustParseClause("advisedBy(X,Y) :- publication(Z,Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)."),
	}
	if _, err := ce.CountMany(context.Background(), clauses, all); err != nil {
		t.Fatal(err)
	}
	if hits, tests := mc.Counter(metrics.CoverageBCCacheHits), mc.Counter(metrics.CoverageTests); hits != int64(len(all)) || tests != int64(3*len(all)) {
		t.Fatalf("warm resolve of %d clauses × %d examples: %d cache hits and %d tests in all, want %d and %d",
			len(clauses), len(all), hits, tests, len(all), 3*len(all))
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
