package subsume

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

func mustClause(t testing.TB, s string) *logic.Clause {
	t.Helper()
	c, err := logic.ParseClause(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSubsumesBasic(t *testing.T) {
	g := mustClause(t, `advisedBy(juan,sarita) :- student(juan), professor(sarita),
		inPhase(juan,post_quals), publication(p1,juan), publication(p1,sarita).`)
	cases := []struct {
		clause string
		want   bool
	}{
		{"advisedBy(X,Y) :- student(X), professor(Y).", true},
		{"advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).", true},
		{"advisedBy(X,Y) :- student(X), professor(Y), publication(Z,X), publication(Z,Y).", true},
		{"advisedBy(X,Y) :- inPhase(X,post_quals).", true},
		{"advisedBy(X,Y) :- inPhase(X,pre_quals).", false},
		{"advisedBy(X,Y) :- professor(X).", false},
		{"advisedBy(X,Y) :- taughtBy(C,Y,T).", false},
		{"advisedBy(X,Y).", true}, // empty body always subsumes
	}
	for _, tc := range cases {
		if got := Subsumes(mustClause(t, tc.clause), g, Options{}); got != tc.want {
			t.Errorf("Subsumes(%q) = %v, want %v", tc.clause, got, tc.want)
		}
	}
}

func TestHeadMismatch(t *testing.T) {
	g := mustClause(t, "advisedBy(juan,sarita) :- student(juan).")
	c := mustClause(t, "advisedBy(X,X) :- student(X).")
	// X cannot bind both juan and sarita.
	if Subsumes(c, g, Options{}) {
		t.Fatal("head with repeated variable must not match distinct constants")
	}
	other := mustClause(t, "otherPred(X,Y) :- student(X).")
	if Subsumes(other, g, Options{}) {
		t.Fatal("different head predicate must not subsume")
	}
}

func TestHeadConstants(t *testing.T) {
	g := mustClause(t, "advisedBy(juan,sarita) :- student(juan).")
	if !Subsumes(mustClause(t, "advisedBy(juan,Y) :- student(juan)."), g, Options{}) {
		t.Fatal("matching head constant must subsume")
	}
	if Subsumes(mustClause(t, "advisedBy(john,Y) :- student(john)."), g, Options{}) {
		t.Fatal("mismatching head constant must not subsume")
	}
}

func TestRepeatedVariableInBodyLiteral(t *testing.T) {
	g := mustClause(t, "h(a) :- p(a,b), q(c,c).")
	if Subsumes(mustClause(t, "h(X) :- p(Y,Y)."), g, Options{}) {
		t.Fatal("p(Y,Y) must not match p(a,b)")
	}
	if !Subsumes(mustClause(t, "h(X) :- q(Y,Y)."), g, Options{}) {
		t.Fatal("q(Y,Y) must match q(c,c)")
	}
}

func TestSharedVariableAcrossLiterals(t *testing.T) {
	g := mustClause(t, "h(a) :- p(a,b), q(b,e), p(a,c), q(d,f).")
	// Chain through b: p(a,b) ∧ q(b,e).
	if !Subsumes(mustClause(t, "h(X) :- p(X,Y), q(Y,Z)."), g, Options{}) {
		t.Fatal("chain through b must match")
	}
	// No chain p(a,?) ∧ q(?,?) through c or d with shared second/first.
	if Subsumes(mustClause(t, "h(X) :- p(X,Y), q(Y,Y)."), g, Options{}) {
		t.Fatal("q(Y,Y) has no ground instance here")
	}
}

func TestBacktrackingRequired(t *testing.T) {
	// First candidate for p fails downstream; the matcher must backtrack.
	g := mustClause(t, "h(a) :- p(a,x1), p(a,x2), q(x2).")
	if !Subsumes(mustClause(t, "h(X) :- p(X,Y), q(Y)."), g, Options{}) {
		t.Fatal("must backtrack from p(a,x1) to p(a,x2)")
	}
}

func TestEmptyGroundBody(t *testing.T) {
	g := mustClause(t, "h(a).")
	if Subsumes(mustClause(t, "h(X) :- p(X)."), g, Options{}) {
		t.Fatal("nonempty body cannot subsume empty ground body")
	}
	if !Subsumes(mustClause(t, "h(X)."), g, Options{}) {
		t.Fatal("empty body subsumes")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// A combinatorial instance with a tiny budget must report incomplete.
	body := "h(X0) :- "
	for i := 0; i < 8; i++ {
		if i > 0 {
			body += ", "
		}
		body += "p(X" + string(rune('0'+i)) + ",X" + string(rune('1'+i)) + ")"
	}
	c := mustClause(t, body+", q(X8).")
	g := mustClause(t, "h(a) :- p(a,a), p(a,b), p(b,a), p(b,c).") // no q at all -> cheap reject
	res := Check(c, g, Options{MaxNodes: 5})
	if res.Subsumes {
		t.Fatal("q(X8) has no ground instance; cannot subsume")
	}
	// Quick rejection should make this complete despite the tiny budget.
	if !res.Complete {
		t.Fatal("predicate absence must be detected without search")
	}
}

func TestIncompleteReportedOnHardNegative(t *testing.T) {
	// Dense bipartite instance with no solution and a tiny node budget:
	// the search cannot finish and must say so.
	ground := "h(a) :- "
	first := true
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			if !first {
				ground += ", "
			}
			first = false
			ground += "e(v" + string(rune('0'+i)) + ",v" + string(rune('0'+j)) + ")"
		}
	}
	g := mustClause(t, ground+".")
	// 7-clique pattern cannot map into 6 vertices (pigeonhole) but needs
	// search to discover.
	clause := "h(X) :- "
	first = true
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if i == j {
				continue
			}
			if !first {
				clause += ", "
			}
			first = false
			clause += "e(Y" + string(rune('0'+i)) + ",Y" + string(rune('0'+j)) + ")"
		}
	}
	c := mustClause(t, clause+".")
	res := Check(c, g, Options{MaxNodes: 50})
	if res.Subsumes {
		t.Fatal("7-clique cannot subsume into 6 vertices")
	}
	if res.Complete {
		t.Fatal("tiny budget on a hard instance must report incomplete")
	}
}

func TestChainFindsSolution(t *testing.T) {
	g := mustClause(t, "h(a) :- p(a,b), p(b,c), p(c,d), p(d,e), q(e).")
	c := mustClause(t, "h(X) :- p(X,Y1), p(Y1,Y2), p(Y2,Y3), p(Y3,Y4), q(Y4).")
	if !Subsumes(c, g, Options{MaxNodes: 100000}) {
		t.Fatal("chain must subsume")
	}
}

func TestNodesCounted(t *testing.T) {
	g := mustClause(t, "h(a) :- p(a,b).")
	res := Check(mustClause(t, "h(X) :- p(X,Y)."), g, Options{})
	if res.Nodes == 0 {
		t.Fatal("nodes must be counted")
	}
}

// bruteForce enumerates all substitutions of c's variables over the
// constants of g and checks subsumption exactly.
func bruteForce(c, g *logic.Clause) bool {
	vars := c.Variables()
	constSet := map[string]bool{}
	for _, t := range g.Head.Terms {
		constSet[t.Name] = true
	}
	for _, l := range g.Body {
		for _, t := range l.Terms {
			constSet[t.Name] = true
		}
	}
	var consts []string
	for v := range constSet {
		consts = append(consts, v)
	}
	groundLits := map[string]bool{}
	for _, l := range g.Body {
		groundLits[l.String()] = true
	}
	var try func(i int, sub logic.Substitution) bool
	try = func(i int, sub logic.Substitution) bool {
		if i == len(vars) {
			if c.Head.Apply(sub).String() != g.Head.String() {
				return false
			}
			for _, l := range c.Body {
				if !groundLits[l.Apply(sub).String()] {
					return false
				}
			}
			return true
		}
		for _, v := range consts {
			sub[vars[i]] = logic.Const(v)
			if try(i+1, sub) {
				return true
			}
		}
		delete(sub, vars[i])
		return false
	}
	return try(0, logic.Substitution{})
}

func TestPropMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	preds := []string{"p", "q"}
	vars := []string{"X", "Y", "Z"}
	consts := []string{"a", "b", "c"}
	for trial := 0; trial < 400; trial++ {
		// Random ground clause.
		g := &logic.Clause{Head: logic.NewLiteral("h", logic.Const(consts[r.Intn(3)]))}
		for i, n := 0, 1+r.Intn(6); i < n; i++ {
			g.Body = append(g.Body, logic.NewLiteral(
				preds[r.Intn(2)], logic.Const(consts[r.Intn(3)]), logic.Const(consts[r.Intn(3)])))
		}
		// Random hypothesis clause.
		c := &logic.Clause{Head: logic.NewLiteral("h", logic.Var("X"))}
		for i, n := 0, r.Intn(4); i < n; i++ {
			mk := func() logic.Term {
				if r.Intn(4) == 0 {
					return logic.Const(consts[r.Intn(3)])
				}
				return logic.Var(vars[r.Intn(3)])
			}
			c.Body = append(c.Body, logic.NewLiteral(preds[r.Intn(2)], mk(), mk()))
		}
		want := bruteForce(c, g)
		got := Check(c, g, Options{})
		if !got.Complete {
			t.Fatalf("tiny instance must complete: %v vs %v", c, g)
		}
		if got.Subsumes != want {
			t.Fatalf("mismatch for clause %v against %v: engine=%v brute=%v", c, g, got.Subsumes, want)
		}
	}
}
