package learn

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/subsume"
)

func TestReduceClauseDropsRedundantLiterals(t *testing.T) {
	d, pos, neg := uwWorld(t, 10, 6)
	c := uwLearnBias(t, d)
	l := New(d, c, Options{Bottom: bottom.Options{Depth: 1}})
	// Warm the coverage cache so reduction has ground BCs.
	bloated := logic.MustParseClause(
		"advisedBy(X,Y) :- student(X), professor(Y), inPhase(X,P), hasPosition(Y,Q), publication(Z,X), publication(Z,Y).")
	reduced, err := l.reduceClause(context.Background(), bloated, neg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reduced.Body) >= len(bloated.Body) {
		t.Fatalf("reduction did not shrink: %s", reduced)
	}
	// The discriminating join must survive: dropping either publication
	// literal would admit negatives.
	pubs := 0
	for _, lit := range reduced.Body {
		if lit.Predicate == "publication" {
			pubs++
		}
	}
	if pubs < 2 {
		t.Fatalf("co-publication join lost in reduction: %s", reduced)
	}
	// Reduction must not increase negative coverage.
	before, err := count(l.cover, bloated, neg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := count(l.cover, reduced, neg)
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("negative coverage grew: %d -> %d", before, after)
	}
	// ... and positive coverage can only grow.
	posBefore, err := count(l.cover, bloated, pos)
	if err != nil {
		t.Fatal(err)
	}
	posAfter, err := count(l.cover, reduced, pos)
	if err != nil {
		t.Fatal(err)
	}
	if posAfter < posBefore {
		t.Fatalf("positive coverage shrank: %d -> %d", posBefore, posAfter)
	}
}

func TestReduceClauseSingleLiteralUntouched(t *testing.T) {
	d, _, neg := uwWorld(t, 6, 3)
	c := uwLearnBias(t, d)
	l := New(d, c, Options{Bottom: bottom.Options{Depth: 1}})
	single := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X).")
	out, err := l.reduceClause(context.Background(), single, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(single) {
		t.Fatalf("single-literal clause must be returned as-is: %s", out)
	}
}

func TestSampleExamples(t *testing.T) {
	d, pos, _ := uwWorld(t, 8, 5)
	c := uwLearnBias(t, d)
	l := New(d, c, Options{})
	// Larger cap than slice: identity.
	got := l.sampleExamples(pos, 100)
	if len(got) != len(pos) {
		t.Fatalf("identity sample = %d", len(got))
	}
	// Smaller cap: right size, no duplicates, all members of pos.
	got = l.sampleExamples(pos, 3)
	if len(got) != 3 {
		t.Fatalf("sample = %d", len(got))
	}
	seen := map[string]bool{}
	valid := map[string]bool{}
	for _, e := range pos {
		valid[e.String()] = true
	}
	for _, e := range got {
		if seen[e.String()] {
			t.Fatal("duplicate in sample")
		}
		seen[e.String()] = true
		if !valid[e.String()] {
			t.Fatal("sample member not from source")
		}
	}
}

func TestSortScored(t *testing.T) {
	c1 := logic.MustParseClause("h(X) :- p(X).")
	c2 := logic.MustParseClause("h(X) :- p(X), q(X).")
	c3 := logic.MustParseClause("h(X) :- r(X).")
	all := []scored{{c2, 5}, {c1, 7}, {c3, 5}}
	sortScored(all)
	if all[0].score != 7 {
		t.Fatalf("best score first: %+v", all)
	}
	// Tie at 5: shorter body first.
	if len(all[1].clause.Body) > len(all[2].clause.Body) {
		t.Fatalf("ties must prefer shorter clauses: %v then %v", all[1].clause, all[2].clause)
	}
}

func TestARMGWithBudgetedSubsumption(t *testing.T) {
	// armg under a tiny subsumption budget still returns a clause that
	// covers the example (possibly over-generalized, never under-).
	d, pos, _ := uwWorld(t, 8, 5)
	c := uwLearnBias(t, d)
	builder := bottom.NewBuilder(d, c, bottom.Options{Depth: 1})
	bc, err := builder.Construct(pos[0])
	if err != nil {
		t.Fatal(err)
	}
	g, err := builder.ConstructGround(pos[1])
	if err != nil {
		t.Fatal(err)
	}
	tiny := subsume.Options{MaxNodes: 50}
	out := ARMGCtx(context.Background(), bc, g, tiny)
	if out == nil {
		t.Fatal("armg returned nil")
	}
	// With a generous budget the result must cover the example.
	full := ARMGCtx(context.Background(), bc, g, subsume.Options{})
	if full == nil || !subsume.CheckCompiled(full, subsume.CompileGround(nil, g), subsume.Options{}).Subsumes {
		t.Fatalf("full-budget armg must cover: %v", full)
	}
}

func TestLearnStatsPopulated(t *testing.T) {
	d, pos, neg := uwWorld(t, 8, 5)
	c := uwLearnBias(t, d)
	mc := metrics.New()
	l := New(d, c, Options{Bottom: bottom.Options{Depth: 1}, Metrics: mc})
	if _, _, err := l.Learn(pos, neg); err != nil {
		t.Fatal(err)
	}
	if mc.Counter(metrics.CoverageTests) == 0 || mc.Counter(metrics.LearnCandidates) == 0 || mc.Snapshot().Spans["learn.run"].TotalNS <= 0 {
		t.Fatalf("run not counted: %+v", mc.Snapshot())
	}
}

func TestLearnDeterministicForSeed(t *testing.T) {
	d, pos, neg := uwWorld(t, 8, 5)
	c := uwLearnBias(t, d)
	defs := make([]string, 2)
	for i := range defs {
		l := New(d, c, Options{Bottom: bottom.Options{Depth: 1}, Seed: 77})
		def, _, err := l.Learn(pos, neg)
		if err != nil {
			t.Fatal(err)
		}
		defs[i] = def.String()
	}
	if defs[0] != defs[1] {
		t.Fatalf("nondeterministic learning for fixed seed:\n%s\nvs\n%s", defs[0], defs[1])
	}
}

func TestLearnManySeedsProgress(t *testing.T) {
	// All-noise positives: the learner must terminate by setting seeds
	// aside rather than looping.
	d, _, neg := uwWorld(t, 8, 5)
	c := uwLearnBias(t, d)
	var noise []Example
	for i := 0; i < 5; i++ {
		noise = append(noise, logic.NewLiteral("advisedBy",
			logic.Const(fmt.Sprintf("s%02d", i)), logic.Const(fmt.Sprintf("p%02d", (i+3)%8))))
	}
	l := New(d, c, Options{Bottom: bottom.Options{Depth: 1}, MinPrecision: 1.0})
	def, _, err := l.Learn(noise, neg)
	if err != nil {
		t.Fatal(err)
	}
	_ = def // termination is the assertion
}
