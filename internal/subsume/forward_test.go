package subsume

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
)

// exhaustive is a budget no test instance comes near: under it a "does
// not subsume" is exact.
var exhaustive = Options{MaxNodes: 1 << 40}

// oracle confirms the refuter's "does not subsume" answers with the
// legacy matcher under a node budget. The suites' oracle is exhaustive
// (exact). The fuzz targets' stops at fuzzOracleNodes, so an input whose
// legacy search would not end in time (the recorded "0X9\x98,Y11B" needs
// 35 M and 70 M nodes, 16 s) cannot hang the fuzzer: a confirmation the
// budget cuts short checks nothing, is counted, and the count is logged.
type oracle struct {
	budget     Options
	unfinished int
}

// fuzzOracleNodes bounds one fuzz confirmation: about 0.15 s of legacy
// search on a 2-CPU container.
const fuzzOracleNodes = 1 << 20

func exact() *oracle { return &oracle{budget: exhaustive} }

func fuzzOracle() *oracle { return &oracle{budget: Options{MaxNodes: fuzzOracleNodes}} }

// subsumes is the legacy matcher's answer on c and g under the budget; an
// unfinished search answers false and is counted.
func (o *oracle) subsumes(ctx context.Context, c, g *logic.Clause) bool {
	res := legacyCheck(ctx, c, g, o.budget)
	if !res.Complete {
		o.unfinished++
	}
	return res.Subsumes
}

// log reports the confirmations the budget left unfinished.
func (o *oracle) log(t *testing.T) {
	t.Helper()
	if o.unfinished > 0 {
		t.Logf("%d refutation(s) left unconfirmed: the legacy search did not end within %d nodes", o.unfinished, o.budget.MaxNodes)
	}
}

// requireForwardSound drives the forward pass literal by literal and
// checks its two contracts on one (clause, ground, opts) input.
// Soundness: whenever the refuter vetoes the whole-clause test or drops
// a literal, an exhaustive search over that same prefix says "does not
// subsume". Equivalence: ForwardPass keeps exactly the literals the
// reference pass (oracle_test.go) keeps, and where the whole clause does
// not subsume, ForwardScan returns ForwardPass's result but for
// WholeRefuted. It returns how many refutations it saw; or confirms them.
func requireForwardSound(t *testing.T, name string, c, g *logic.Clause, opts Options, or *oracle) int {
	t.Helper()
	ctx := context.Background()
	cg := CompileGround(nil, g)

	want := referenceForward(c, cg, opts)
	got := ForwardPass(ctx, c, cg, opts)
	if got.HeadMatches != want.HeadMatches || got.Covers != want.Covers || !slices.Equal(got.Kept, want.Kept) {
		t.Fatalf("%s: ForwardPass=%+v reference=%+v (clause %v vs %v, opts %+v)", name, got, want, c, g, opts)
	}
	if scan := ForwardScan(ctx, c, cg, opts); !got.Covers &&
		(scan.HeadMatches != got.HeadMatches || scan.Covers || scan.WholeRefuted || scan.Refuted != got.Refuted || !slices.Equal(scan.Kept, got.Kept)) {
		t.Fatalf("%s: ForwardScan=%+v ForwardPass=%+v (clause %v vs %v, opts %+v)", name, scan, got, c, g, opts)
	}

	opts = opts.normalized()
	m := matcherPool.Get().(*matcher)
	defer m.release()
	m.cc.compile(cg.in, c)
	if !m.bindHead(&m.cc, cg) {
		return 0
	}
	refutations := 0
	// The sweep the search stops for, run on every whole clause that
	// binds, whether or not its search would get as far as the stop.
	if m.bind(&m.cc, cg) && m.refutes() {
		refutations++
		if or.subsumes(ctx, c, g) {
			t.Fatalf("%s: whole clause refuted but it subsumes (clause %v vs %v)", name, c, g)
		}
	}
	m.bindHead(&m.cc, cg)
	m.kept.reset(m.nVars, m.nLocal)
	prefix := &logic.Clause{Head: c.Head}
	for i, lit := range c.Body {
		requireResumedRefuter(t, name, m, cg, i)
		kept, refuted := m.extend(ctx, cg, opts, i)
		if refuted {
			refutations++
			trial := &logic.Clause{Head: c.Head, Body: append(slices.Clone(prefix.Body), lit)}
			if or.subsumes(ctx, trial, g) {
				t.Fatalf("%s: literal %d refuted but the prefix subsumes (prefix %v vs %v)", name, i, trial, g)
			}
		}
		if kept {
			prefix.Body = append(prefix.Body, lit)
		}
	}
	return refutations
}

// requireResumedRefuter holds the stop's refuter on a prefix test to the
// from-scratch one. On a matcher holding a forward pass's kept prefix
// (and the prefix's sets in m.kept), it binds body literal i as
// extend does and, when the literal has support in the kept sets — so its
// search runs and may reach the stop — runs both refuters: the one the
// stop runs, resumed from m.kept, and whole.reset plus a sweep from
// literal 0. They must agree on the verdict and, when neither refutes, on
// the fixpoint itself. The matcher is left as it was found.
func requireResumedRefuter(t *testing.T, name string, m *matcher, cg *CompiledGround, i int) {
	t.Helper()
	held := len(m.terms)
	defer func() { m.terms = m.terms[:held] }()
	terms, ext := m.litTerms(&m.cc, i, cg), m.cc.extent(i, cg)
	if !m.supported(terms, ext, &m.kept) {
		return
	}
	m.pushLit(terms, ext)
	defer m.popLit()

	m.whole.reset(m.nVars, m.nLocal)
	scratch := m.propagate(&m.whole, 0)
	var want domains
	want.copyFrom(&m.whole)
	m.fromKept = true
	resumed := m.refutes()
	m.fromKept = false
	if resumed != scratch {
		t.Fatalf("%s: literal %d: resumed refuter refutes=%v, from scratch %v", name, i, resumed, scratch)
	}
	if scratch {
		return
	}
	got, w := &m.whole, want.words
	for v := 0; v < m.nVars; v++ {
		if got.seen[v] != want.seen[v] {
			t.Fatalf("%s: literal %d: variable %d seen=%v resumed, %v from scratch", name, i, v, got.seen[v], want.seen[v])
		}
		if !want.seen[v] {
			continue
		}
		if got.size[v] != want.size[v] || !slices.Equal(got.bits[v*w:][:w], want.bits[v*w:][:w]) {
			t.Fatalf("%s: literal %d: variable %d's set differs: resumed %d values, from scratch %d", name, i, v, got.size[v], want.size[v])
		}
		if want.size[v] == 1 && got.one[v] != want.one[v] {
			t.Fatalf("%s: literal %d: variable %d's one value: resumed %d, from scratch %d", name, i, v, got.one[v], want.one[v])
		}
	}
}

// keptNarrowedNegative is a prefix test the stop's refuter answers from
// the kept prefix's sets: the hard chain of chainNegative, then b(Y6,Z)
// and c(Z), which the pass keeps and which narrow Z to {z1,z2} and the
// last vertex to {v1,v2}, then k(Y6,Z). Its row k(v1,z2) has support in
// those sets, so it is searched, and the search thrashes through the
// chain to the stop; its other row, k(v3,z3), is consistent with b alone.
// Only with c(Z)'s earlier narrowing does k leave Y6 = v1 and Z = z2,
// which no b row holds: the resumed refuter refutes at the stop.
func keptNarrowedNegative(t testing.TB) (c, g *logic.Clause) {
	t.Helper()
	c, g = backwardNegative(t, 7, 6)
	c.Body[len(c.Body)-1] = logic.NewLiteral("k", logic.Var("Y6"), logic.Var("Z"))
	body := g.Body[:0]
	for _, l := range g.Body {
		if l.Predicate != "d" {
			body = append(body, l)
		}
	}
	g.Body = append(body,
		logic.NewLiteral("k", logic.Const("v1"), logic.Const("z2")),
		logic.NewLiteral("k", logic.Const("v3"), logic.Const("z3")))
	return c, g
}

// TestForwardPassRefutedFromKept: the prefix test of k(Y6,Z) reaches the
// stop and is refuted there, by the refuter resumed from the kept sets.
func TestForwardPassRefutedFromKept(t *testing.T) {
	ctx := context.Background()
	c, g := keptNarrowedNegative(t)
	cg := CompileGround(nil, g)
	opts := Options{MaxNodes: 5000}
	last := len(c.Body) - 1
	got := ForwardPass(ctx, c, cg, opts)
	if !got.WholeRefuted || got.Refuted != 0 || len(got.Kept) != last || slices.Contains(got.Kept, last) {
		t.Fatalf("expected k(Y6,Z) dropped at the stop and the rest kept, got %+v", got)
	}
	requireForwardSound(t, "kept-narrowed", c, g, opts, exact())

	m := matcherPool.Get().(*matcher)
	defer m.release()
	m.cc.compile(cg.in, c)
	m.bindHead(&m.cc, cg)
	m.kept.reset(m.nVars, m.nLocal)
	for i := 0; i < last; i++ {
		if kept, _ := m.extend(ctx, cg, opts.normalized(), i); !kept {
			t.Fatalf("literal %d must be kept", i)
		}
	}
	if kept, refuted := m.extend(ctx, cg, opts.normalized(), last); kept || refuted || m.how != byRefuter {
		t.Fatalf("k(Y6,Z): kept=%v refuted=%v by %d, want dropped by the refuter at the stop", kept, refuted, m.how)
	}
}

func TestForwardPassTable(t *testing.T) {
	cases := []struct {
		name   string
		clause string
		ground string
	}{
		{"covers", "h(X) :- p(X,Y), q(Y).", "h(a) :- p(a,b), q(b)."},
		{"head-mismatch", "h(b) :- p(b,Y).", "h(a) :- p(a,b)."},
		{"drops-missing-pred", "h(X) :- p(X,Y), r(Y), q(Y).", "h(a) :- p(a,b), q(b)."},
		{"drops-by-domain", "h(X) :- p(X,Y), q(Y), s(Y).", "h(a) :- p(a,b), q(b), s(c)."},
		{"chain-narrowing", "h(X) :- p(X,Y), p(Y,Z), q(Z), s(Z).", "h(a) :- p(a,b), p(b,c), p(b,d), q(c), s(d)."},
		{"repeated-var", "h(X) :- p(X,Y), e(Y,Y), q(Y).", "h(a) :- p(a,b), p(a,c), e(c,c), e(b,d), q(b)."},
		{"const-in-body", "h(X) :- p(X,b), q(c,X), q(b,X).", "h(a) :- p(a,b), q(b,a)."},
		{"unknown-const", "h(X) :- p(X,zzz), p(X,Y).", "h(a) :- p(a,b)."},
		{"arity-mismatch", "h(X) :- p(X), p(X,Y).", "h(a) :- p(a,b)."},
		// Not refutable by arc consistency (Y=b and Y=c each have
		// support in q and in s, never together): the search must decide.
		{"needs-search", "h(X) :- p(X,Y), q(Y,Z), s(Y,Z).", "h(a) :- p(a,b), p(a,c), q(b,d), q(c,e), s(b,e), s(c,d)."},
	}
	for _, tc := range cases {
		c := mustClause(t, tc.clause)
		g := mustClause(t, tc.ground)
		for _, opts := range []Options{{}, {MaxNodes: 1}, {MaxNodes: 3}} {
			requireForwardSound(t, tc.name, c, g, opts, exact())
		}
	}

	// A head variable bound to the empty string (the reserved id 0) is
	// free to the search, so it must be free to the refuter too.
	g0 := &logic.Clause{Head: logic.NewLiteral("h", logic.Const(""))}
	g0.Body = append(g0.Body,
		logic.NewLiteral("p", logic.Const("a"), logic.Const("b")),
		logic.NewLiteral("q", logic.Const("c")))
	requireForwardSound(t, "empty-head-value", mustClause(t, "h(X) :- p(X,Y), q(Y)."), g0, Options{}, exact())

	// The prefix refuter must actually fire where one consistent row is
	// missing. The whole-clause test is the search's to answer here — it
	// fails in a handful of nodes, far short of the stop for the sweep
	// (TestForwardPassWholeRefuted is the other case).
	c := mustClause(t, "h(X) :- p(X,Y), q(Y), s(Y).")
	g := mustClause(t, "h(a) :- p(a,b), q(b), s(c).")
	got := ForwardPass(context.Background(), c, CompileGround(nil, g), Options{})
	if got.WholeRefuted || got.Refuted != 1 || !slices.Equal(got.Kept, []int{0, 1}) {
		t.Fatalf("expected s(Y) refuted and the whole clause searched, got %+v", got)
	}
}

// FuzzForwardPass decodes a byte string into an escalation instance
// (escalation_test.go) and a budget, and holds ForwardPass to
// requireForwardSound's two contracts, confirming refutations under the
// fuzz oracle's budget.
func FuzzForwardPass(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{31, 3, 3, 0, 1, 3, 0, 2, 3, 1, 2, 3, 2, 0, 3, 1, 0, 3, 2, 1, 9, 1, 1, 5, 1, 2, 5, 2, 3})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte("0X9\x98,Y11B"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		take := byteTaker(data)
		c, g := escalationInstance(take)
		or := fuzzOracle()
		requireForwardSound(t, "fuzz", c, g, Options{MaxNodes: escalationBudgets[take(len(escalationBudgets))]}, or)
		or.log(t)
	})
}

// TestForwardPassRandom is the soundness property over random instances
// wide enough (three predicates, five variables, up to eight literals
// over up to twelve ground rows) for domains to narrow and refute.
func TestForwardPassRandom(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	preds := []string{"p", "q", "s"}
	vars := []string{"X", "Y", "Z", "W", "V"}
	consts := []string{"a", "b", "c", "d", ""}
	refutations := 0
	for trial := 0; trial < 1500; trial++ {
		g := &logic.Clause{Head: logic.NewLiteral("h", logic.Const(consts[r.Intn(5)]))}
		for i, n := 0, 1+r.Intn(12); i < n; i++ {
			g.Body = append(g.Body, logic.NewLiteral(
				preds[r.Intn(3)], logic.Const(consts[r.Intn(5)]), logic.Const(consts[r.Intn(5)])))
		}
		c := &logic.Clause{Head: logic.NewLiteral("h", logic.Var("X"))}
		for i, n := 0, r.Intn(9); i < n; i++ {
			mk := func() logic.Term {
				if r.Intn(5) == 0 {
					return logic.Const(consts[r.Intn(5)])
				}
				return logic.Var(vars[r.Intn(5)])
			}
			c.Body = append(c.Body, logic.NewLiteral(preds[r.Intn(3)], mk(), mk()))
		}
		opts := Options{}
		switch trial % 3 {
		case 1:
			opts = Options{MaxNodes: 1 + r.Intn(6)}
		case 2:
			opts = Options{MaxNodes: 1 + r.Intn(40)}
		}
		refutations += requireForwardSound(t, "random", c, g, opts, exact())
	}
	if refutations < 500 {
		t.Fatalf("only %d refutations in 1500 instances: the property is not exercising the refuter", refutations)
	}
}

// TestCheckClauseStaleSymbols: a candidate compiled before the ground
// clause that first interns one of its constants (the table grows while
// ground BCs are built between the tests of one count) must still see
// that constant when bound.
func TestCheckClauseStaleSymbols(t *testing.T) {
	in := logic.NewInterner()
	c := mustClause(t, "h(X) :- p(X,late), r(X).")
	cc := CompileClause(in, c)
	early := CompileGround(in, mustClause(t, "h(a) :- p(a,b)."))
	if res := CheckClauseCtx(context.Background(), cc, early, Options{}); res.Subsumes {
		t.Fatalf("must not subsume a ground clause without its constant: %+v", res)
	}
	late := CompileGround(in, mustClause(t, "h(a) :- p(a,late), r(a)."))
	want := CheckCompiled(c, late, Options{})
	if got := CheckClauseCtx(context.Background(), cc, late, Options{}); got != want || !got.Subsumes {
		t.Fatalf("stale constant not re-resolved at bind time: got %+v want %+v", got, want)
	}
}
