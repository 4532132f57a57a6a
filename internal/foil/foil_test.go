package foil

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bias"
	"repro/internal/bottom"
	"repro/internal/db"
	"repro/internal/learn"
	"repro/internal/logic"
)

// parentWorld: grandparent via two parent hops — a classic FOIL concept.
func parentWorld(t testing.TB) (*db.Database, *bias.Compiled, []learn.Example, []learn.Example) {
	t.Helper()
	s := db.NewSchema()
	s.MustAdd("parent", "a", "b")
	s.MustAdd("person", "name")
	d := db.New(s)
	// Three-generation chains: gi -> mi -> ci.
	var pos, neg []learn.Example
	for i := 0; i < 6; i++ {
		g := fmt.Sprintf("g%d", i)
		m := fmt.Sprintf("m%d", i)
		c := fmt.Sprintf("c%d", i)
		for _, p := range []string{g, m, c} {
			d.MustInsert("person", p)
		}
		d.MustInsert("parent", g, m)
		d.MustInsert("parent", m, c)
		pos = append(pos, logic.NewLiteral("grandparent", logic.Const(g), logic.Const(c)))
		// Negatives: reversed and skew pairs.
		neg = append(neg, logic.NewLiteral("grandparent", logic.Const(c), logic.Const(g)))
		neg = append(neg, logic.NewLiteral("grandparent", logic.Const(g), logic.Const(m)))
	}
	b := bias.MustParse(`
		grandparent(T1,T1)
		person(T1)
		parent(T1,T1)
		person(+)
		parent(+,-)
		parent(-,+)
	`)
	c, err := b.Compile(d.Schema(), "grandparent", 2)
	if err != nil {
		t.Fatal(err)
	}
	return d, c, pos, neg
}

func TestFOILLearnsGrandparent(t *testing.T) {
	d, c, pos, neg := parentWorld(t)
	l := New(d, c, learn.Options{Bottom: bottom.Options{Depth: 2}, Seed: 2})
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
}

func TestFOILGain(t *testing.T) {
	// Perfect split has positive gain; useless literal has none.
	if g := foilGain(10, 10, 10, 0); g <= 0 {
		t.Fatalf("perfect split gain = %v", g)
	}
	if g := foilGain(10, 10, 10, 10); g != 0 {
		t.Fatalf("no-op literal gain = %v, want 0", g)
	}
	if g := foilGain(10, 10, 0, 0); g != 0 {
		t.Fatalf("dead literal gain = %v, want 0", g)
	}
	// Losing negatives while keeping most positives beats losing many
	// positives.
	better := foilGain(10, 10, 9, 1)
	worse := foilGain(10, 10, 3, 0)
	if better <= worse {
		t.Fatalf("gain ordering: keepPos=%v < dropPos=%v", better, worse)
	}
}

func TestFOILTimeout(t *testing.T) {
	d, c, pos, neg := parentWorld(t)
	l := New(d, c, learn.Options{Timeout: time.Nanosecond})
	def, stats, err := l.Learn(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TimedOut {
		t.Fatal("1ns budget must time out")
	}
	if def.Len() != 0 {
		t.Fatal("timed-out run must learn nothing")
	}
}

func TestCandidateLiteralsRespectTypes(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("p", "a")
	s.MustAdd("q", "b")
	d := db.New(s)
	d.MustInsert("p", "x")
	d.MustInsert("q", "y")
	// p's attribute shares the target's type; q's does not.
	b := bias.MustParse(`
		t(T1)
		p(T1)
		q(T9)
		p(+)
		q(+)
	`)
	c, err := b.Compile(d.Schema(), "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	fs := &search{db: d, bias: c, maxClauseLen: maxClauseLen, maxConstants: maxConstants}
	_, varTypes, next := fs.headLiteral()
	cands := fs.candidateLiterals(varTypes, &next)
	for _, cand := range cands {
		if cand.Predicate == "q" {
			t.Fatalf("q must be unreachable: no variable of type T9 exists; got %v", cands)
		}
	}
	foundP := false
	for _, cand := range cands {
		if cand.Predicate == "p" {
			foundP = true
		}
	}
	if !foundP {
		t.Fatal("p must be a candidate")
	}
}

func TestTopConstantsOrderAndCap(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("r", "a")
	d := db.New(s)
	for i := 0; i < 5; i++ {
		d.MustInsert("r", "common")
	}
	d.MustInsert("r", "rare")
	b := bias.MustParse(`
		t(T1)
		r(T1)
		r(+)
	`)
	c, err := b.Compile(d.Schema(), "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	fs := &search{db: d, bias: c, maxClauseLen: maxClauseLen, maxConstants: 1}
	got := fs.topConstants("r", 0)
	if len(got) != 1 || got[0] != "common" {
		t.Fatalf("topConstants = %v, want [common]", got)
	}
}

func TestFOILShortClauseBias(t *testing.T) {
	// FOIL must respect its clause-length cap.
	d, c, pos, neg := parentWorld(t)
	short := &search{db: d, bias: c, maxClauseLen: 1, maxConstants: maxConstants}
	l := learn.New(d, c, learn.Options{Bottom: bottom.Options{Depth: 2}, Seed: 2, EvalSampleCap: evalSampleCap, Search: short})
	def, _, err := l.Learn(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range def.Clauses {
		if len(cl.Body) > 1 {
			t.Fatalf("clause longer than cap: %s", cl)
		}
	}
}
