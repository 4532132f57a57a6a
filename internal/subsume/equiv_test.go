package subsume

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// requireEquiv checks that the compiled matcher is bit-identical to the
// legacy string matcher on one (clause, ground, opts) input: same
// Subsumes/Complete/Cancelled flags and the same node count, which pins
// candidate ordering and budget accounting.
func requireEquiv(t *testing.T, name string, c, g *logic.Clause, opts Options) {
	t.Helper()
	requireEntryPoints(t, name, c, g, opts, legacyCheck(context.Background(), c, g, opts))
}

// requireMatcherContract is requireEquiv where the contract is exact
// equality — budgets at or below the stop — and the escalation's
// contract (requireEscalationAt) above it, where the refuter may answer
// a legacy "no" at the stop's node count.
func requireMatcherContract(t *testing.T, name string, c, g *logic.Clause, opts Options) {
	t.Helper()
	if opts.normalized().MaxNodes <= probeNodes {
		requireEquiv(t, name, c, g, opts)
		return
	}
	want := requireEscalationAt(t, name, c, g, opts, &tally{}, new(bool), exact())
	requireEntryPoints(t, name, c, g, opts, want)
}

// requireEntryPoints checks that every way of running one test —
// string and compiled forms, a reused compiled ground, a shared
// interner, a clause compiled ahead of its ground — returns want.
func requireEntryPoints(t *testing.T, name string, c, g *logic.Clause, opts Options, want Result) {
	t.Helper()
	ctx := context.Background()
	if got := Check(c, g, opts); got != want {
		t.Fatalf("%s: Check=%+v want=%+v (clause %v vs %v)", name, got, want, c, g)
	}
	cg := CompileGround(nil, g)
	if got := CheckCompiled(c, cg, opts); got != want {
		t.Fatalf("%s: CheckCompiled=%+v want=%+v (clause %v vs %v)", name, got, want, c, g)
	}
	// A second check against the same CompiledGround must not be
	// perturbed by pooled-matcher state left over from the first.
	if got := CheckCompiled(c, cg, opts); got != want {
		t.Fatalf("%s: repeated CheckCompiled=%+v want=%+v", name, got, want)
	}
	// Sharing an interner across compiles must not change outcomes even
	// when the candidate mentions constants interned by other grounds.
	in := logic.NewInterner()
	in.Intern("unrelated_const_from_another_example")
	// The candidate compiled ahead of the ground clause — before the
	// table holds the ground's constants — must bind to the same result.
	cc := CompileClause(in, c)
	shared := CompileGround(in, g)
	if got := CheckCompiled(c, shared, opts); got != want {
		t.Fatalf("%s: shared-interner CheckCompiled=%+v want=%+v", name, got, want)
	}
	if got := CheckClauseCtx(ctx, cc, shared, opts); got != want {
		t.Fatalf("%s: CheckClauseCtx=%+v want=%+v (clause %v vs %v)", name, got, want, c, g)
	}
}

// requireRenamingInvariant checks what the coverage engine's verdict
// store rests on: a clause and a variable-renamed twin are one search.
// The twin — and the twin answered through the first clause's compiled
// form, which is how the store serves it — must return the identical
// Result (Subsumes, Complete, Nodes) under a starved budget and under
// the learner's default one. The new names reverse the old ones' sort
// order, so a decision that leaned on variable names would show.
func requireRenamingInvariant(t *testing.T, name string, c, g *logic.Clause) {
	t.Helper()
	vars := c.Variables()
	ren := make(logic.Substitution, len(vars))
	for i, v := range vars {
		ren[v] = logic.Var("R" + string(rune('a'+len(vars)-i)) + v)
	}
	twin := c.Apply(ren)
	if twin.Key() != c.Key() {
		t.Fatalf("%s: renaming changed the canonical key: %v vs %v", name, c, twin)
	}
	in := logic.NewInterner()
	cg := CompileGround(in, g)
	cc := CompileClause(in, c)
	for _, budget := range []int{50, 5000} {
		opts := Options{MaxNodes: budget}
		want := CheckCompiled(c, cg, opts)
		if got := CheckCompiled(twin, cg, opts); got != want {
			t.Fatalf("%s budget %d: renamed twin %+v, original %+v (clause %v vs %v)", name, budget, got, want, c, g)
		}
		if got := CheckClauseCtx(context.Background(), cc, cg, opts); got != want {
			t.Fatalf("%s budget %d: original's compiled form %+v, original %+v (clause %v vs %v)", name, budget, got, want, c, g)
		}
	}
}

func TestCheckCompiledEquivalenceTable(t *testing.T) {
	hard := func(t *testing.T) (c, g *logic.Clause) {
		// Pigeonhole: 7-clique pattern over a 6-vertex complete digraph.
		ground := "h(a) :- "
		clause := "h(X) :- "
		gFirst, cFirst := true, true
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if i == j {
					continue
				}
				if !gFirst {
					ground += ", "
				}
				gFirst = false
				ground += "e(v" + string(rune('0'+i)) + ",v" + string(rune('0'+j)) + ")"
			}
		}
		for i := 0; i < 7; i++ {
			for j := 0; j < 7; j++ {
				if i == j {
					continue
				}
				if !cFirst {
					clause += ", "
				}
				cFirst = false
				clause += "e(Y" + string(rune('0'+i)) + ",Y" + string(rune('0'+j)) + ")"
			}
		}
		return mustClause(t, clause+"."), mustClause(t, ground+".")
	}

	cases := []struct {
		name   string
		clause string
		ground string
	}{
		{"basic-match", "h(X) :- p(X,Y).", "h(a) :- p(a,b)."},
		{"basic-reject", "h(X) :- p(X,X).", "h(a) :- p(a,b)."},
		{"head-const-match", "h(a,Y) :- p(Y).", "h(a,b) :- p(b)."},
		{"head-const-reject", "h(b,Y) :- p(Y).", "h(a,b) :- p(b)."},
		{"head-repeat-match", "h(X,X) :- p(X).", "h(a,a) :- p(a)."},
		{"head-repeat-reject", "h(X,X) :- p(X).", "h(a,b) :- p(a), p(b)."},
		{"empty-body", "h(X).", "h(a) :- p(a,b)."},
		{"empty-ground-body", "h(X) :- p(X).", "h(a)."},
		{"missing-pred", "h(X) :- r(X).", "h(a) :- p(a,b)."},
		{"repeated-var-literal", "h(X) :- p(X,Y), p(Y,Y).", "h(a) :- p(a,b), p(b,b)."},
		{"shared-var-chain", "h(X) :- p(X,Y), q(Y,Z), p(Z,X).", "h(a) :- p(a,b), q(b,c), p(c,a), p(a,c)."},
		{"backtracking", "h(X) :- p(X,Y), q(Y).", "h(a) :- p(a,b), p(a,c), q(c)."},
		{"const-in-body", "h(X) :- p(X,b), q(b,X).", "h(a) :- p(a,b), q(b,a), p(a,c)."},
		{"chain", "h(X) :- p(X,Y1), p(Y1,Y2), p(Y2,Y3), p(Y3,Y4), q(Y4).",
			"h(a) :- p(a,b), p(b,c), p(c,d), p(d,e), q(e)."},
	}
	optVariants := []Options{
		{},
		{MaxNodes: 1},
		{MaxNodes: 2},
		{MaxNodes: 5},
		{MaxNodes: 100000},
	}
	for _, tc := range cases {
		c := mustClause(t, tc.clause)
		g := mustClause(t, tc.ground)
		for _, opts := range optVariants {
			requireEquiv(t, tc.name, c, g, opts)
		}
	}

	// Budget exhaustion on a hard negative: the node totals must agree.
	c, g := hard(t)
	for _, opts := range []Options{
		{MaxNodes: 50},
		{MaxNodes: 200},
		{MaxNodes: 1000},
	} {
		requireEquiv(t, "pigeonhole", c, g, opts)
	}
	// Exhausted at 50 and at 5000 alike: the renaming leg's budget path.
	requireRenamingInvariant(t, "pigeonhole", c, g)
}

// TestCheckCompiledEquivalenceInPlaceWalk pins the node counts of the
// search's in-place walk over a level's rows — a row that fails the check
// against the level's bindings is skipped without a node — at every
// budget from one node up, so each budget runs out at a different row.
func TestCheckCompiledEquivalenceInPlaceWalk(t *testing.T) {
	cases := []struct {
		name   string
		clause string
		ground string
	}{
		// t(X,Y,k) walks X's posting list (5 rows; k's has 7), whose rows
		// alternate between k and j: the budget runs out mid-level with
		// incompatible rows between the compatible ones, none of which
		// has a u to go on to.
		{"budget-mid-level", "h(X) :- t(X,Y,k), u(Y).",
			"h(a) :- t(a,y1,k), t(a,y2,j), t(a,y3,k), t(a,y4,j), t(a,y5,k), " +
				"t(b,y1,k), t(b,y2,k), t(b,y3,k), t(b,y4,k), u(z)."},
		// p(W,W) with W = w1 bound walks the first slot's posting list (3
		// rows; the second slot's has 5), where p(w1,w2) and p(w1,w3) fail
		// the row check and p(w1,w1) passes; with Z free, e(Z,Z,k) walks
		// k's posting list and binds Z from its first slot, so e(a,b,k) is
		// a node that fails on the second.
		{"repeated-var-bound", "h(X) :- q(X,W), p(W,W), s(W).",
			"h(a) :- q(a,w1), q(a,w4), p(w1,w2), p(w1,w1), p(w1,w3), p(w3,w1), p(w5,w1), p(w6,w1), p(w7,w1), " +
				"p(w4,w5), p(w4,w4), s(w4)."},
		{"repeated-var-free", "h(X) :- e(Z,Z,k), s(Z).",
			"h(a) :- e(a,b,k), e(c,c,k), e(d,e,k), e(f,f,j), e(g,g,k), s(g)."},
		// Nothing bound: p(Y,Z) is picked first and scans its whole extent.
		{"nothing-bound", "h(X) :- p(Y,Z), q(Z), r(Y).",
			"h(a) :- p(b,c), p(c,d), p(d,e), p(e,f), q(d), q(f), r(e)."},
	}
	for _, tc := range cases {
		c := mustClause(t, tc.clause)
		g := mustClause(t, tc.ground)
		if !legacyCheck(context.Background(), c, g, Options{}).Subsumes && tc.name != "budget-mid-level" {
			t.Fatalf("%s: the instance must subsume, so the walk reaches its last level", tc.name)
		}
		for budget := 1; budget <= 12; budget++ {
			requireEquiv(t, tc.name, c, g, Options{MaxNodes: budget})
		}
		requireEquiv(t, tc.name, c, g, Options{})
	}
}

func TestCheckCompiledEquivalenceEmptyStringConstants(t *testing.T) {
	// The interner reserves id 0 for "" as the unbound sentinel; ground
	// databases may still carry literal empty-string values. Equivalence
	// must hold when "" appears as a head value or extent value.
	g := &logic.Clause{Head: logic.NewLiteral("h", logic.Const(""), logic.Const(""))}
	g.Body = append(g.Body,
		logic.NewLiteral("p", logic.Const(""), logic.Const("b")),
		logic.NewLiteral("p", logic.Const("b"), logic.Const("")))
	c := &logic.Clause{Head: logic.NewLiteral("h", logic.Var("X"), logic.Var("X"))}
	c.Body = append(c.Body,
		logic.NewLiteral("p", logic.Var("X"), logic.Var("Y")),
		logic.NewLiteral("p", logic.Var("Y"), logic.Var("X")))
	requireEquiv(t, "empty-string-head", c, g, Options{})

	// Repeated head variable where the ground values are both "" must
	// bind like any other value, and the "" initial value must still be
	// treated as ground (not as an unbound variable).
	c2 := &logic.Clause{Head: logic.NewLiteral("h", logic.Var("X"), logic.Var("Y"))}
	c2.Body = append(c2.Body, logic.NewLiteral("p", logic.Var("X"), logic.Var("Y")))
	requireEquiv(t, "empty-string-bound", c2, g, Options{})
}

func TestCheckCompiledEquivalenceCancellation(t *testing.T) {
	g := mustClause(t, "h(a) :- p(a,b), p(b,c), p(c,d), p(d,e), q(e).")
	c := mustClause(t, "h(X) :- p(X,Y1), p(Y1,Y2), p(Y2,Y3), p(Y3,Y4), q(Y4).")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{MaxNodes: 100000}
	want := legacyCheck(ctx, c, g, opts)
	if !want.Cancelled {
		t.Fatalf("legacy reference must observe cancellation, got %+v", want)
	}
	if got := CheckCtx(ctx, c, g, opts); got != want {
		t.Fatalf("CheckCtx under cancelled ctx: got %+v want %+v", got, want)
	}
	if got := CheckCompiledCtx(ctx, c, CompileGround(nil, g), opts); got != want {
		t.Fatalf("CheckCompiledCtx under cancelled ctx: got %+v want %+v", got, want)
	}
}

// TestCheckCompiledEquivalenceRandom drives both matchers over random
// instances (the TestPropMatchesBruteForce generator, widened with body
// constants and repeated variables) under plain and budget-starved
// options.
func TestCheckCompiledEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	preds := []string{"p", "q"}
	vars := []string{"X", "Y", "Z", "W"}
	consts := []string{"a", "b", "c", ""}
	for trial := 0; trial < 600; trial++ {
		g := &logic.Clause{Head: logic.NewLiteral("h", logic.Const(consts[r.Intn(3)]))}
		for i, n := 0, 1+r.Intn(7); i < n; i++ {
			g.Body = append(g.Body, logic.NewLiteral(
				preds[r.Intn(2)], logic.Const(consts[r.Intn(4)]), logic.Const(consts[r.Intn(4)])))
		}
		c := &logic.Clause{Head: logic.NewLiteral("h", logic.Var("X"))}
		for i, n := 0, r.Intn(5); i < n; i++ {
			mk := func() logic.Term {
				if r.Intn(4) == 0 {
					return logic.Const(consts[r.Intn(4)])
				}
				return logic.Var(vars[r.Intn(4)])
			}
			c.Body = append(c.Body, logic.NewLiteral(preds[r.Intn(2)], mk(), mk()))
		}
		opts := Options{}
		switch trial % 3 {
		case 1:
			opts = Options{MaxNodes: 1 + r.Intn(4)}
		case 2:
			opts = Options{MaxNodes: 1 + r.Intn(50)}
		}
		requireMatcherContract(t, "random", c, g, opts)
		requireRenamingInvariant(t, "random", c, g)
	}
}

// FuzzCheckCompiledEquivalence decodes a byte string into a (clause,
// ground, options) triple and holds the compiled matcher to the legacy
// one: bit-identical at budgets up to the stop, the escalation's
// contract above it.
func FuzzCheckCompiledEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{9, 9, 9, 9, 0, 0, 0, 0, 9, 9, 9, 9})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		next := func(i int) byte {
			return data[i%len(data)]
		}
		preds := []string{"p", "q", "r"}
		consts := []string{"a", "b", "c", ""}
		vars := []string{"X", "Y", "Z"}
		pos := 0
		take := func(n int) int {
			v := int(next(pos)) % n
			pos++
			return v
		}
		g := &logic.Clause{Head: logic.NewLiteral("h", logic.Const(consts[take(3)]))}
		for i, n := 0, 1+take(7); i < n; i++ {
			g.Body = append(g.Body, logic.NewLiteral(
				preds[take(3)], logic.Const(consts[take(4)]), logic.Const(consts[take(4)])))
		}
		var ct logic.Term
		if take(4) == 0 {
			ct = logic.Const(consts[take(3)])
		} else {
			ct = logic.Var("X")
		}
		c := &logic.Clause{Head: logic.NewLiteral("h", ct)}
		for i, n := 0, take(5); i < n; i++ {
			mk := func() logic.Term {
				if take(4) == 0 {
					return logic.Const(consts[take(4)])
				}
				return logic.Var(vars[take(3)])
			}
			c.Body = append(c.Body, logic.NewLiteral(preds[take(3)], mk(), mk()))
		}
		opts := Options{MaxNodes: 1 + take(64)}
		if take(2) == 0 {
			opts = Options{}
		}
		requireMatcherContract(t, "fuzz", c, g, opts)
		requireForwardSound(t, "fuzz", c, g, opts, exact())
	})
}
