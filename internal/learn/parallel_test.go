package learn

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/subsume"
)

// TestCountParallelMatchesSequential checks the core determinism claim
// of the worker pool: Count over the same examples returns the same
// value at 1 and at many workers, and the ground BCs backing the counts
// are identical objects to the ones the sequential engine builds.
func TestCountParallelMatchesSequential(t *testing.T) {
	d, pos, neg := uwWorld(t, 12, 8)
	c := uwLearnBias(t, d)
	copub := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).")
	all := append(append([]Example(nil), pos...), neg...)

	builderSeq := bottom.NewBuilder(d, c, bottom.Options{Depth: 1})
	seq := NewCoverage(builderSeq, subsume.Options{})
	wantPos, err := count(seq, copub, pos)
	if err != nil {
		t.Fatal(err)
	}
	wantAll, err := count(seq, copub, all)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4, 8} {
		builder := bottom.NewBuilder(d, c, bottom.Options{Depth: 1})
		par := NewCoverage(builder, subsume.Options{})
		par.SetWorkers(workers)
		got, err := count(par, copub, pos)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantPos {
			t.Errorf("workers=%d: Count(pos) = %d, want %d", workers, got, wantPos)
		}
		got, err = count(par, copub, all)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantAll {
			t.Errorf("workers=%d: Count(all) = %d, want %d", workers, got, wantAll)
		}
		// The pool must have produced the same ground BCs as the
		// sequential engine.
		for _, e := range all {
			gs, err := seq.GroundBCCtx(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			gp, err := par.GroundBCCtx(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			if gs.String() != gp.String() {
				t.Fatalf("workers=%d: ground BC for %v diverged", workers, e)
			}
		}
	}
}

// TestCountManyMatchesSequential checks the batched evaluation path:
// CountMany over a candidate frontier returns exactly the counts
// sequential single-clause counts return, at every worker count
// and every limit, and leaves the same ground BCs behind.
func TestCountManyMatchesSequential(t *testing.T) {
	d, pos, neg := uwWorld(t, 12, 8)
	c := uwLearnBias(t, d)
	all := append(append([]Example(nil), pos...), neg...)
	frontier := []*logic.Clause{
		logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- student(X)."),
		logic.MustParseClause("advisedBy(X,Y) :- professor(Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- student(X), professor(Y), publication(Z,X)."),
	}
	limits := []int{0, 1, 3, len(all), len(all) + 1}

	ref := NewCoverage(bottom.NewBuilder(d, c, bottom.Options{Depth: 1}), subsume.Options{})
	want := make(map[int][]int)
	for _, limit := range limits {
		for _, cl := range frontier {
			n, err := countUpTo(ref, cl, all, limit)
			if err != nil {
				t.Fatal(err)
			}
			want[limit] = append(want[limit], n)
		}
	}

	for _, workers := range []int{1, 4, 8} {
		ce := NewCoverage(bottom.NewBuilder(d, c, bottom.Options{Depth: 1}), subsume.Options{})
		ce.SetWorkers(workers)
		for _, limit := range limits {
			got, err := ce.CountMany(context.Background(), frontier, all, limit)
			if err != nil {
				t.Fatal(err)
			}
			for i := range frontier {
				if got[i] != want[limit][i] {
					t.Errorf("workers=%d limit=%d clause %d: CountMany %d, want %d", workers, limit, i, got[i], want[limit][i])
				}
			}
		}
		// Batched evaluation must build the same ground BCs the
		// sequential engine builds.
		for _, e := range all {
			gs, err := ref.GroundBCCtx(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			gp, err := ce.GroundBCCtx(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			if gs.String() != gp.String() {
				t.Fatalf("workers=%d: ground BC for %v diverged under batched evaluation", workers, e)
			}
		}
	}
}

// TestGeneralizeManyMatchesSequential checks the armg fan-out: a round
// resolved on 2, 4 and 8 workers returns, slot for slot, the clauses the
// one-worker engine returns, stores the same memo, and leaves the intern
// table holding the same symbols in the same id order (the ground BCs
// were fetched in the one-by-one loop's order). The round
// holds a repeated pair (the bottom clause twice), which must share one
// pass, and is resolved twice, the second time from the memo.
func TestGeneralizeManyMatchesSequential(t *testing.T) {
	d, pos, _ := uwWorld(t, 12, 8)
	c := uwLearnBias(t, d)
	round := func(workers int) ([]string, [][2]string, []string) {
		builder := bottom.NewBuilder(d, c, bottom.Options{Depth: 1})
		ce := NewCoverage(builder, subsume.Options{})
		ce.SetWorkers(workers)
		var clauses []*logic.Clause
		for _, e := range pos[:3] {
			bc, err := builder.Construct(e)
			if err != nil {
				t.Fatal(err)
			}
			clauses = append(clauses, bc.PruneNotHeadConnected())
		}
		clauses = append(clauses, clauses[0])
		var rendered []string
		for pass := 0; pass < 2; pass++ {
			out, err := ce.GeneralizeManyCtx(context.Background(), clauses, pos)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(clauses)*len(pos) {
				t.Fatalf("workers=%d: %d results for %d pairs", workers, len(out), len(clauses)*len(pos))
			}
			for i, cand := range out {
				if first := i - 3*len(pos); first >= 0 && cand != out[first] {
					t.Fatalf("workers=%d: repeated pair %d did not share its pass", workers, first)
				}
				rendered = append(rendered, fmt.Sprint(cand))
			}
		}
		return rendered, ce.ExtractCarried().ARMGPairs(), ce.Interner().Symbols()
	}
	wantOut, wantKeys, wantSyms := round(1)
	for _, workers := range []int{2, 4, 8} {
		out, keys, syms := round(workers)
		if !reflect.DeepEqual(out, wantOut) {
			t.Errorf("workers=%d: generalizations diverge from workers=1", workers)
		}
		if !reflect.DeepEqual(keys, wantKeys) {
			t.Errorf("workers=%d: armg memo keys diverge from workers=1", workers)
		}
		if !reflect.DeepEqual(syms, wantSyms) {
			t.Errorf("workers=%d: intern table holds %d symbols, workers=1 holds %d (or in another order)", workers, len(syms), len(wantSyms))
		}
	}
}

// TestCountUpToDecisions checks the early-exit contract: a count
// returns min(exact, limit), so threshold decisions agree with the full
// count at every worker count.
func TestCountUpToDecisions(t *testing.T) {
	d, pos, _ := uwWorld(t, 12, 8)
	c := uwLearnBias(t, d)
	copub := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).")

	for _, workers := range []int{1, 4} {
		builder := bottom.NewBuilder(d, c, bottom.Options{Depth: 1})
		ce := NewCoverage(builder, subsume.Options{})
		ce.SetWorkers(workers)
		exact, err := count(ce, copub, pos)
		if err != nil {
			t.Fatal(err)
		}
		if exact == 0 {
			t.Fatal("co-publication must cover positives")
		}
		for _, limit := range []int{0, 1, exact - 1, exact, exact + 3} {
			got, err := countUpTo(ce, copub, pos, limit)
			if err != nil {
				t.Fatal(err)
			}
			want := exact
			if want > limit {
				want = limit
			}
			if got != want {
				t.Errorf("workers=%d: count(limit=%d) = %d, want %d", workers, limit, got, want)
			}
		}
	}
}

// TestPooledColdCacheConcurrent drives cache misses from outside the
// pool: concurrent Covers calls against a cold BC cache must agree,
// converge on one canonical cached BC per example, and be race-free
// (checked under -race in CI).
func TestPooledColdCacheConcurrent(t *testing.T) {
	d, pos, neg := uwWorld(t, 12, 8)
	c := uwLearnBias(t, d)
	copub := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).")
	all := append(append([]Example(nil), pos...), neg...)

	builder := bottom.NewBuilder(d, c, bottom.Options{Depth: 1})
	ce := NewCoverage(builder, subsume.Options{})
	ce.SetWorkers(8)

	// Every BC is built with its example's derived seed, so the expected
	// outcomes can be computed one call at a time.
	want := make(map[string]bool)
	for _, e := range all {
		ok, err := ce.Covers(context.Background(), copub, e)
		if err != nil {
			t.Fatal(err)
		}
		want[e.String()] = ok
	}

	// Fresh engine, now genuinely concurrent over a cold cache.
	cold := NewCoverage(bottom.NewBuilder(d, c, bottom.Options{Depth: 1}), subsume.Options{})
	cold.SetWorkers(8)
	var wg sync.WaitGroup
	errs := make(chan error, len(all)*4)
	for round := 0; round < 4; round++ {
		for _, e := range all {
			wg.Add(1)
			go func(e Example) {
				defer wg.Done()
				ok, err := cold.Covers(context.Background(), copub, e)
				if err != nil {
					errs <- err
					return
				}
				if ok != want[e.String()] {
					t.Errorf("concurrent Covers(%v) = %v, want %v", e, ok, want[e.String()])
				}
			}(e)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// One canonical BC pointer per example after the storm.
	for _, e := range all {
		g1, err := cold.GroundBCCtx(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := cold.GroundBCCtx(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		if g1 != g2 {
			t.Fatalf("ground BC for %v not canonicalized", e)
		}
	}
}

// TestLearnDeterministicAcrossWorkers is the end-to-end determinism
// guarantee: the same seed learns the same definition (and the same
// search trajectory) at 1 and at 8 workers.
func TestLearnDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (*logic.Definition, *Stats) {
		d, pos, neg := uwWorld(t, 12, 8)
		c := uwLearnBias(t, d)
		l := New(d, c, Options{
			Bottom:  bottom.Options{Depth: 1, SampleSize: 20},
			Seed:    5,
			Workers: workers,
		})
		def, stats, err := l.Learn(pos, neg)
		if err != nil {
			t.Fatal(err)
		}
		return def, stats
	}
	def1, stats1 := run(1)
	def8, stats8 := run(8)
	if def1.String() != def8.String() {
		t.Errorf("definitions diverge across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", def1, def8)
	}
	if stats1.Clauses != stats8.Clauses ||
		stats1.RoundsTotal != stats8.RoundsTotal ||
		stats1.CandidatesSeen != stats8.CandidatesSeen ||
		stats1.PositivesCovered != stats8.PositivesCovered {
		t.Errorf("search trajectory diverges: workers=1 %+v, workers=8 %+v", stats1, stats8)
	}
}

// TestBuilderCloneContract checks the worker-pool contract on Builder:
// clones share the database and bias but own their RNG, so concurrent
// construction through clones is race-free and a clone reproduces the
// sequence a fresh builder with the same seed would produce.
func TestBuilderCloneContract(t *testing.T) {
	d, pos, _ := uwWorld(t, 12, 8)
	c := uwLearnBias(t, d)
	opts := bottom.Options{Depth: 1, SampleSize: 3, Seed: 7}
	fresh := bottom.NewBuilder(d, c, opts)
	clone := bottom.NewBuilder(d, c, opts).Clone()
	for _, e := range pos {
		a, err := fresh.ConstructGround(e)
		if err != nil {
			t.Fatal(err)
		}
		b, err := clone.ConstructGround(e)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("clone diverges from fresh builder on %v", e)
		}
	}
	// Concurrent construction through independent clones is safe.
	base := bottom.NewBuilder(d, c, opts)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := base.CloneSeeded(int64(100 + w))
			for _, e := range pos {
				if _, err := b.ConstructGround(e); err != nil {
					t.Errorf("clone %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
