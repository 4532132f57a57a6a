package learn

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bias"
	"repro/internal/bottom"
	"repro/internal/db"
	"repro/internal/logic"
	"repro/internal/subsume"
)

// uwWorld builds a UW-style database where advisedBy(s,p) holds exactly
// when s and p co-authored a publication. Students/professors indexed
// 0..n-1; pairs (si, pi) for i < nAdvised co-publish.
func uwWorld(t testing.TB, n, nAdvised int) (*db.Database, []Example, []Example) {
	t.Helper()
	s := db.NewSchema()
	s.MustAdd("student", "stud")
	s.MustAdd("professor", "prof")
	s.MustAdd("inPhase", "stud", "phase")
	s.MustAdd("hasPosition", "prof", "position")
	s.MustAdd("publication", "title", "person")
	d := db.New(s)
	phases := []string{"pre_quals", "post_quals", "post_generals"}
	positions := []string{"assistant", "associate", "full"}
	for i := 0; i < n; i++ {
		st := fmt.Sprintf("s%02d", i)
		pr := fmt.Sprintf("p%02d", i)
		d.MustInsert("student", st)
		d.MustInsert("professor", pr)
		d.MustInsert("inPhase", st, phases[i%len(phases)])
		d.MustInsert("hasPosition", pr, positions[i%len(positions)])
	}
	var pos, neg []Example
	for i := 0; i < nAdvised; i++ {
		st := fmt.Sprintf("s%02d", i)
		pr := fmt.Sprintf("p%02d", i)
		d.MustInsert("publication", fmt.Sprintf("t%02d", i), st)
		d.MustInsert("publication", fmt.Sprintf("t%02d", i), pr)
		pos = append(pos, logic.NewLiteral("advisedBy", logic.Const(st), logic.Const(pr)))
	}
	// Solo publications for the rest (noise that breaks naive "published
	// anything" hypotheses).
	for i := nAdvised; i < n; i++ {
		d.MustInsert("publication", fmt.Sprintf("solo%02d", i), fmt.Sprintf("s%02d", i))
		d.MustInsert("publication", fmt.Sprintf("solo%02d", i), fmt.Sprintf("p%02d", i))
	}
	// Negatives: cross pairs that never co-published.
	for i := 0; i < n; i++ {
		st := fmt.Sprintf("s%02d", i)
		pr := fmt.Sprintf("p%02d", (i+1)%n)
		neg = append(neg, logic.NewLiteral("advisedBy", logic.Const(st), logic.Const(pr)))
	}
	return d, pos, neg
}

func uwLearnBias(t testing.TB, d *db.Database) *bias.Compiled {
	t.Helper()
	b := bias.MustParse(`
		advisedBy(T1,T3)
		student(T1)
		professor(T3)
		inPhase(T1,T2)
		hasPosition(T3,T4)
		publication(T5,T1)
		publication(T5,T3)
		student(+)
		professor(+)
		inPhase(+,-)
		inPhase(+,#)
		hasPosition(+,-)
		publication(-,+)
		publication(+,-)
	`)
	c, err := b.Compile(d.Schema(), "advisedBy", 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestARMGDropsBlockingAtom(t *testing.T) {
	d, _, _ := uwWorld(t, 6, 6)
	c := uwLearnBias(t, d)
	builder := bottom.NewBuilder(d, c, bottom.Options{Depth: 1})
	// Seed s00 (phase pre_quals); generalize against s01 (post_quals).
	// The literal inPhase(V0, pre_quals) blocks and must be dropped; the
	// co-publication pattern survives.
	bc, err := builder.Construct(logic.NewLiteral("advisedBy", logic.Const("s00"), logic.Const("p00")))
	if err != nil {
		t.Fatal(err)
	}
	hasConstPhase := false
	for _, l := range bc.Body {
		if l.Predicate == "inPhase" && l.Terms[1].IsConst() {
			hasConstPhase = true
		}
	}
	if !hasConstPhase {
		t.Fatalf("seed BC must contain a constant phase literal: %s", bc)
	}
	g, err := builder.ConstructGround(logic.NewLiteral("advisedBy", logic.Const("s01"), logic.Const("p01")))
	if err != nil {
		t.Fatal(err)
	}
	out := ARMG(bc, g, subsume.Options{})
	if out == nil {
		t.Fatal("armg returned nil")
	}
	for _, l := range out.Body {
		if l.Predicate == "inPhase" && l.Terms[1].IsConst() && l.Terms[1].Name == "pre_quals" {
			t.Fatalf("blocking constant-phase literal not dropped: %s", out)
		}
	}
	// The generalization must cover the other example.
	if !subsume.CheckCompiled(out, subsume.CompileGround(nil, g), subsume.Options{}).Subsumes {
		t.Fatalf("armg result must cover the generalization example: %s", out)
	}
	// The co-publication join must survive.
	pubs := 0
	for _, l := range out.Body {
		if l.Predicate == "publication" {
			pubs++
		}
	}
	if pubs < 2 {
		t.Fatalf("co-publication pattern lost: %s", out)
	}
}

func TestARMGNilOnHeadMismatch(t *testing.T) {
	c := logic.MustParseClause("advisedBy(X,X) :- student(X).")
	g := logic.MustParseClause("advisedBy(a,b) :- student(a).")
	if out := ARMG(c, g, subsume.Options{}); out != nil {
		t.Fatalf("head with repeated variable cannot cover distinct constants: %v", out)
	}
}

func TestARMGAlreadyCovering(t *testing.T) {
	c := logic.MustParseClause("h(X) :- p(X,Y).")
	g := logic.MustParseClause("h(a) :- p(a,b).")
	out := ARMG(c, g, subsume.Options{})
	if out == nil || !out.Equal(c.PruneNotHeadConnected()) {
		t.Fatalf("covering clause must be returned unchanged: %v", out)
	}
}

func TestARMGSize(t *testing.T) {
	// armg must never grow the clause (guaranteed by construction).
	c := logic.MustParseClause("h(X) :- p(X,Y), q(Y,c1), r(Y).")
	g := logic.MustParseClause("h(a) :- p(a,b), r(b).")
	out := ARMG(c, g, subsume.Options{})
	if out == nil {
		t.Fatal("nil")
	}
	if len(out.Body) >= len(c.Body) {
		t.Fatalf("clause did not shrink: %v", out)
	}
	if !subsume.CheckCompiled(out, subsume.CompileGround(nil, g), subsume.Options{}).Subsumes {
		t.Fatalf("result must cover: %v", out)
	}
}

func TestLearnCoAuthorship(t *testing.T) {
	d, pos, neg := uwWorld(t, 10, 6)
	c := uwLearnBias(t, d)
	l := New(d, c, Options{
		Bottom: bottom.Options{Depth: 1, SampleSize: 20},
		Seed:   5,
	})
	def, stats, err := l.Learn(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() == 0 {
		t.Fatal("no clauses learned")
	}
	if stats.TimedOut {
		t.Fatal("unexpected timeout")
	}
	// The definition must cover all positives and no negatives (training
	// accuracy on a noise-free concept).
	for _, e := range pos {
		ok, err := l.Coverage().DefinitionCovers(context.Background(), def, e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("positive %v not covered by:\n%s", e, def)
		}
	}
	for _, e := range neg {
		ok, err := l.Coverage().DefinitionCovers(context.Background(), def, e)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("negative %v covered by:\n%s", e, def)
		}
	}
	if stats.PositivesCovered != len(pos) {
		t.Errorf("PositivesCovered = %d, want %d", stats.PositivesCovered, len(pos))
	}
	// The learned clause must use the co-publication self-join.
	foundJoin := false
	for _, cl := range def.Clauses {
		titles := map[string]int{}
		for _, lit := range cl.Body {
			if lit.Predicate == "publication" && lit.Terms[0].IsVar() {
				titles[lit.Terms[0].Name]++
			}
		}
		for _, n := range titles {
			if n >= 2 {
				foundJoin = true
			}
		}
	}
	if !foundJoin {
		t.Errorf("expected a co-publication self-join in:\n%s", def)
	}
}

func TestLearnTimeout(t *testing.T) {
	d, pos, neg := uwWorld(t, 10, 6)
	c := uwLearnBias(t, d)
	l := New(d, c, Options{Timeout: time.Nanosecond})
	def, stats, err := l.Learn(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TimedOut {
		t.Fatal("1ns budget must time out")
	}
	if def.Len() != 0 {
		t.Fatalf("timed-out run learned %d clauses", def.Len())
	}
}

func TestLearnEmptyPositives(t *testing.T) {
	d, _, neg := uwWorld(t, 6, 3)
	c := uwLearnBias(t, d)
	l := New(d, c, Options{})
	def, stats, err := l.Learn(nil, neg)
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() != 0 || stats.Clauses != 0 {
		t.Fatal("no positives must yield an empty definition")
	}
}

func TestCoverageEngineCache(t *testing.T) {
	d, pos, _ := uwWorld(t, 6, 3)
	c := uwLearnBias(t, d)
	builder := bottom.NewBuilder(d, c, bottom.Options{Depth: 1})
	ce := NewCoverage(builder, subsume.Options{})
	g1, err := ce.GroundBCCtx(context.Background(), pos[0])
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ce.GroundBCCtx(context.Background(), pos[0])
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("ground BCs must be cached")
	}
}

func TestCoverageCount(t *testing.T) {
	d, pos, neg := uwWorld(t, 8, 5)
	c := uwLearnBias(t, d)
	builder := bottom.NewBuilder(d, c, bottom.Options{Depth: 1})
	ce := NewCoverage(builder, subsume.Options{})
	copub := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).")
	nPos, err := count(ce, copub, pos)
	if err != nil {
		t.Fatal(err)
	}
	if nPos != len(pos) {
		t.Fatalf("co-publication covers %d/%d positives", nPos, len(pos))
	}
	nNeg, err := count(ce, copub, neg)
	if err != nil {
		t.Fatal(err)
	}
	if nNeg != 0 {
		t.Fatalf("co-publication covers %d negatives, want 0", nNeg)
	}
}

func TestMinCriterionRejectsBadClauses(t *testing.T) {
	// With MinPrecision = 1.0 on a noisy concept (one positive whose pair
	// never co-published), the learner must not emit a clause covering
	// negatives.
	d, pos, neg := uwWorld(t, 10, 6)
	// Poison: a positive with no structure at all.
	pos = append(pos, logic.NewLiteral("advisedBy", logic.Const("s09"), logic.Const("p08")))
	c := uwLearnBias(t, d)
	l := New(d, c, Options{
		Bottom:       bottom.Options{Depth: 1},
		MinPrecision: 1.0,
		Seed:         3,
	})
	def, _, err := l.Learn(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range neg {
		ok, err := l.Coverage().DefinitionCovers(context.Background(), def, e)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("negative %v covered despite MinPrecision=1:\n%s", e, def)
		}
	}
}
