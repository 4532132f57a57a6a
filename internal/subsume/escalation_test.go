package subsume

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/logic"
)

// chainNegative builds a refutable hard negative: a hops-long e-chain
// from the head over the complete digraph on n vertices, ending in a
// vertex that must be both q and r — which no vertex is. The search
// binds the chain variables in order and meets the contradiction only at
// the last one, so it thrashes through ~n^hops chains; the sweep empties
// the last variable's set the moment it has read q and r.
func chainNegative(t testing.TB, n, hops int) (c, g *logic.Clause) {
	t.Helper()
	var gb, cb []string
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				gb = append(gb, fmt.Sprintf("e(v%d,v%d)", i, j))
			}
		}
	}
	gb = append(gb, "q(v1)", "q(v2)", "r(v3)", "r(v4)")
	for i := 0; i < hops; i++ {
		cb = append(cb, fmt.Sprintf("e(Y%d,Y%d)", i, i+1))
	}
	cb = append(cb, fmt.Sprintf("q(Y%d)", hops), fmt.Sprintf("r(Y%d)", hops))
	return mustClause(t, "h(Y0) :- "+strings.Join(cb, ", ")+"."),
		mustClause(t, "h(v0) :- "+strings.Join(gb, ", ")+".")
}

// backwardNegative is a refutable hard negative that one sweep in body
// order does not refute: the same chain, ending in a vertex whose b-value
// must be c and which must itself be d, over a ground clause where the
// c-valued vertices {v1,v2} and the d vertices {v3,v4} are disjoint. The
// sweep reads c(Z) after b has narrowed the last vertex, so d still has
// support; only narrowing back through b to a fixpoint refutes.
func backwardNegative(t testing.TB, n, hops int) (c, g *logic.Clause) {
	t.Helper()
	var gb, cb []string
	for i := 0; i < n; i++ {
		gb = append(gb, fmt.Sprintf("b(v%d,z%d)", i, i))
		for j := 0; j < n; j++ {
			if i != j {
				gb = append(gb, fmt.Sprintf("e(v%d,v%d)", i, j))
			}
		}
	}
	gb = append(gb, "c(z1)", "c(z2)", "d(v3)", "d(v4)")
	for i := 0; i < hops; i++ {
		cb = append(cb, fmt.Sprintf("e(Y%d,Y%d)", i, i+1))
	}
	cb = append(cb, fmt.Sprintf("b(Y%d,Z)", hops), "c(Z)", fmt.Sprintf("d(Y%d)", hops))
	return mustClause(t, "h(Y0) :- "+strings.Join(cb, ", ")+"."),
		mustClause(t, "h(v0) :- "+strings.Join(gb, ", ")+".")
}

// oneSweepRefutes is the refuter before it narrowed to a fixpoint: one
// sweep over the bound literals in body order, each narrowing the sets
// as if kept, none revisited.
func oneSweepRefutes(m *matcher) bool {
	m.whole.reset(m.nVars, m.nLocal)
	for i := range m.lits {
		if !m.revise(&m.whole, i, 0) {
			return true
		}
	}
	return false
}

// sweepAndFixpoint binds c over g on a matcher of its own and runs both
// refuters: ok is false when the clause does not bind.
func sweepAndFixpoint(c, g *logic.Clause) (sweep, fixpoint, ok bool) {
	cg := CompileGround(nil, g)
	m := matcherPool.Get().(*matcher)
	defer m.release()
	m.cc.compile(cg.in, c)
	if !m.bind(&m.cc, cg) {
		return false, false, false
	}
	return oneSweepRefutes(m), m.refutes(), true
}

// chainLatePositive is a positive the search finds only well past the
// stop: the same chain over two clusters the head vertex points into —
// the complete digraph on v1..v4, which holds no vertex that is both q
// and r and which the walk exhausts first, one start vertex after
// another, and the pair v5 ⇄ v6, which is both. The pass must carry on
// from its stop to the very node the legacy search succeeds at.
func chainLatePositive(t testing.TB, hops int) (c, g *logic.Clause) {
	t.Helper()
	c, _ = chainNegative(t, 2, hops)
	gb := []string{"e(v0,v1)", "e(v0,v2)", "e(v0,v3)", "e(v0,v5)", "e(v5,v6)", "e(v6,v5)"}
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 4; j++ {
			if i != j {
				gb = append(gb, fmt.Sprintf("e(v%d,v%d)", i, j))
			}
		}
	}
	gb = append(gb, "q(v1)", "q(v2)", "r(v3)", "r(v4)", "q(v5)", "r(v5)", "q(v6)", "r(v6)")
	return c, mustClause(t, "h(v0) :- "+strings.Join(gb, ", ")+".")
}

// checkHow runs the package's one test procedure on a matcher of the
// test's own, over the clause compiled before the ground clause (the
// coverage engine's order), and also reports what answered.
func checkHow(ctx context.Context, c, g *logic.Clause, opts Options) (Result, stage) {
	in := logic.NewInterner()
	cc := CompileClause(in, c)
	cg := CompileGround(in, g)
	m := matcherPool.Get().(*matcher)
	defer m.release()
	res := m.check(ctx, cc, cg, opts.normalized())
	return res, m.how
}

// escalationBudgets are the budgets the escalation is held to the legacy
// matcher at: around the stop, far below it and at the learner's own.
var escalationBudgets = []int{1, probeNodes - 1, probeNodes, probeNodes + 1, 50, 5000}

// tally counts what answered the tests of a suite.
type tally struct{ probe, refuted, search int }

// requireEscalation holds one (clause, ground) input to the escalation's
// contract (requireEscalationAt) at every budget of escalationBudgets.
func requireEscalation(t *testing.T, name string, c, g *logic.Clause, tl *tally, or *oracle) {
	t.Helper()
	confirmed := false
	for _, budget := range escalationBudgets {
		requireEscalationAt(t, fmt.Sprintf("%s budget %d", name, budget), c, g, Options{MaxNodes: budget}, tl, &confirmed, or)
	}
}

// requireEscalationAt holds one (clause, ground, options) test to the
// escalation's contract and returns its Result: Subsumes equals the
// legacy matcher's; a test the refuter did not answer returns the legacy
// Result whole, node count included; a refuted test is one the legacy
// matcher answers "no" having spent at least the stop's nodes, is
// reported complete at exactly the stop, and — the first time *confirmed
// is false — is confirmed by or's search; Complete is false
// only where legacy's was; nothing is Cancelled. tl counts what
// answered.
func requireEscalationAt(t *testing.T, at string, c, g *logic.Clause, opts Options, tl *tally, confirmed *bool, or *oracle) Result {
	t.Helper()
	ctx := context.Background()
	budget := opts.normalized().MaxNodes
	want := legacyCheck(ctx, c, g, opts)
	got, how := checkHow(ctx, c, g, opts)
	if got.Subsumes != want.Subsumes || got.Cancelled || (!got.Complete && want.Complete) {
		t.Fatalf("%s: got %+v legacy %+v (clause %v vs %v)", at, got, want, c, g)
	}
	if shared := CheckCompiled(c, CompileGround(nil, g), opts); shared != got {
		t.Fatalf("%s: CheckCompiled %+v, CheckClauseCtx %+v", at, shared, got)
	}
	switch how {
	case byRefuter:
		tl.refuted++
		if budget <= probeNodes {
			t.Fatalf("%s: refuted under a budget with no stop in it", at)
		}
		if got != (Result{Complete: true, Nodes: probeNodes}) || want.Nodes < probeNodes {
			t.Fatalf("%s: refuted %+v, legacy %+v", at, got, want)
		}
		if !*confirmed {
			*confirmed = true
			if or.subsumes(ctx, c, g) {
				t.Fatalf("%s: refuted but it subsumes (clause %v vs %v)", at, c, g)
			}
		}
	case byProbe:
		tl.probe++
		if got != want || budget <= probeNodes || got.Nodes > probeNodes {
			t.Fatalf("%s: probe-decided %+v, legacy %+v", at, got, want)
		}
	default:
		tl.search++
		if got != want {
			t.Fatalf("%s: searched %+v, legacy %+v", at, got, want)
		}
	}
	return got
}

func TestCheckClauseEscalationTable(t *testing.T) {
	var tl tally
	for _, tc := range []struct{ name, clause, ground string }{
		{"basic-match", "h(X) :- p(X,Y).", "h(a) :- p(a,b)."},
		{"basic-reject", "h(X) :- p(X,X).", "h(a) :- p(a,b)."},
		{"head-const-reject", "h(b,Y) :- p(Y).", "h(a,b) :- p(b)."},
		{"empty-body", "h(X).", "h(a) :- p(a,b)."},
		{"missing-pred", "h(X) :- r(X).", "h(a) :- p(a,b)."},
		{"unknown-const", "h(X) :- p(X,zzz), p(X,Y).", "h(a) :- p(a,b)."},
		{"arity-mismatch", "h(X) :- p(X), p(X,Y).", "h(a) :- p(a,b)."},
		{"backtracking", "h(X) :- p(X,Y), q(Y).", "h(a) :- p(a,b), p(a,c), q(c)."},
	} {
		requireEscalation(t, tc.name, mustClause(t, tc.clause), mustClause(t, tc.ground), &tl, exact())
	}
	before := tl
	c, g := chainNegative(t, 7, 6)
	requireEscalation(t, "chain-negative", c, g, &tl, exact())
	if tl.refuted-before.refuted != 2 {
		t.Fatalf("the refutable negative must be refuted at both budgets above the stop: %+v", tl)
	}
	// What the change is for: the legacy answer is an exhausted budget,
	// the escalation's a complete "no" twenty times cheaper.
	if want := legacyCheck(context.Background(), c, g, Options{MaxNodes: 5000}); want.Complete || want.Nodes != 5000 {
		t.Fatalf("chain-negative no longer exhausts the legacy matcher: %+v", want)
	}

	// What narrowing to a fixpoint adds: the sweep leaves this chain to
	// the search, which exhausts the legacy budget on it.
	before = tl
	c, g = backwardNegative(t, 7, 6)
	requireEscalation(t, "backward-negative", c, g, &tl, exact())
	if tl.refuted-before.refuted != 2 {
		t.Fatalf("the backward negative must be refuted at both budgets above the stop: %+v", tl)
	}
	if sweep, fixpoint, _ := sweepAndFixpoint(c, g); sweep || !fixpoint {
		t.Fatalf("backward-negative: one sweep refutes=%v, the fixpoint refutes=%v", sweep, fixpoint)
	}
	if want := legacyCheck(context.Background(), c, g, Options{MaxNodes: 5000}); want.Complete || want.Nodes != 5000 {
		t.Fatalf("backward-negative no longer exhausts the legacy matcher: %+v", want)
	}

	before = tl
	c, g = chainLatePositive(t, 6)
	requireEscalation(t, "chain-late-positive", c, g, &tl, exact())
	res, how := checkHow(context.Background(), c, g, Options{MaxNodes: 1 << 30})
	if !res.Subsumes || res.Nodes <= probeNodes || how != bySearch {
		t.Fatalf("the late positive must be found past the stop: %+v by %d", res, how)
	}

	// AC-consistent hard negative: every arc of the pigeonhole instance
	// has support, so the refuter cannot refute it and it stays exhausted.
	before = tl
	c, g = hardInstance(t, 7)
	requireEscalation(t, "pigeonhole", c, g, &tl, exact())
	if tl.refuted != before.refuted {
		t.Fatalf("pigeonhole refuted: the refuter is claiming more than arc consistency")
	}
	if res, _ := checkHow(context.Background(), c, g, Options{MaxNodes: 5000}); res.Complete || res.Nodes != 5000 {
		t.Fatalf("pigeonhole must still exhaust its budget: %+v", res)
	}
}

// escalationInstance draws an instance big enough for searches to pass
// the stop and small enough that an exhaustive search of a refuted one
// ends: four predicates over seven constants (the empty string among
// them), up to seventy ground rows. Half the clauses are up to ten random
// literals over six variables; the other half are the shape the learner's
// exhausted tests have — a chain through the dense relation e from the
// head, which the search walks variable by variable, closed by a few
// sparse conditions on its far end that may or may not be satisfiable
// together.
func escalationInstance(take func(n int) int) (c, g *logic.Clause) {
	preds := []string{"p", "q", "s", "e"}
	vars := []string{"X", "Y", "Z", "W", "V", "U"}
	consts := []string{"a", "b", "c", "d", "f", "g", ""}
	g = &logic.Clause{Head: logic.NewLiteral("h", logic.Const(consts[take(7)]))}
	for i, n := 0, 20+take(51); i < n; i++ {
		pr := preds[take(3)]
		if take(4) != 0 {
			pr = "e" // one dense relation, so chains have somewhere to thrash
		}
		g.Body = append(g.Body, logic.NewLiteral(pr, logic.Const(consts[take(7)]), logic.Const(consts[take(7)])))
	}
	c = &logic.Clause{Head: logic.NewLiteral("h", logic.Var("X"))}
	if take(2) == 0 {
		hops := 4 + take(5)
		name := func(i int) logic.Term {
			if i == 0 {
				return logic.Var("X")
			}
			return logic.Var(fmt.Sprintf("C%d", i))
		}
		for i := 0; i < hops; i++ {
			c.Body = append(c.Body, logic.NewLiteral("e", name(i), name(i+1)))
		}
		for i, n := 0, 1+take(3); i < n; i++ {
			other := logic.Term(logic.Var(fmt.Sprintf("F%d", i)))
			if take(3) == 0 {
				other = logic.Const(consts[take(7)])
			}
			c.Body = append(c.Body, logic.NewLiteral(preds[take(3)], name(hops-take(2)), other))
		}
		return c, g
	}
	for i, n := 0, 3+take(8); i < n; i++ {
		mk := func() logic.Term {
			if take(12) == 0 {
				return logic.Const(consts[take(7)])
			}
			return logic.Var(vars[take(6)])
		}
		pr := preds[take(4)]
		if take(3) != 0 {
			pr = "e"
		}
		c.Body = append(c.Body, logic.NewLiteral(pr, mk(), mk()))
	}
	return c, g
}

// TestCheckClauseEscalationRandom is the contract over random instances,
// and checks that the generator exercises all three outcomes. It also
// runs the fixpoint and the one-pass sweep on every instance that binds,
// whether or not its search reaches the stop: every clause the sweep
// refutes the fixpoint refutes too, and the fixpoint refutes a share of
// clauses the sweep leaves to the search, each confirmed by an
// exhaustive search.
func TestCheckClauseEscalationRandom(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var tl tally
	fixpointOnly := 0
	for trial := 0; trial < 3200; trial++ {
		c, g := escalationInstance(r.Intn)
		name := fmt.Sprintf("random-%d", trial)
		requireEscalation(t, name, c, g, &tl, exact())
		switch sweep, fixpoint, _ := sweepAndFixpoint(c, g); {
		case sweep && !fixpoint:
			t.Fatalf("%s: refuted by the sweep, not by the fixpoint (clause %v vs %v)", name, c, g)
		case fixpoint && !sweep:
			fixpointOnly++
			if legacyCheck(context.Background(), c, g, exhaustive).Subsumes {
				t.Fatalf("%s: refuted but it subsumes (clause %v vs %v)", name, c, g)
			}
		}
	}
	if tl.probe < 1000 || tl.refuted < 100 || tl.search < 1000 {
		t.Fatalf("the generator is not exercising the escalation: %+v", tl)
	}
	if fixpointOnly < 20 {
		t.Fatalf("only %d instances refuted by the fixpoint alone", fixpointOnly)
	}
}

// FuzzCheckClauseEscalation decodes a byte string into an instance of
// the same shape and holds it to the same contract, confirming a
// refutation under the fuzz oracle's budget.
func FuzzCheckClauseEscalation(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{31, 3, 3, 0, 1, 3, 0, 2, 3, 1, 2, 3, 2, 0, 3, 1, 0, 3, 2, 1, 9, 1, 1, 5, 1, 2, 5, 2, 3})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		c, g := escalationInstance(byteTaker(data))
		var tl tally
		or := fuzzOracle()
		requireEscalation(t, "fuzz", c, g, &tl, or)
		or.log(t)
	})
}

// byteTaker decodes a fuzzer's byte string into escalationInstance's
// draws, cycling through it with a per-lap offset.
func byteTaker(data []byte) func(n int) int {
	pos := 0
	return func(n int) int {
		v := int(data[pos%len(data)]+byte(pos/len(data))) % n
		pos++
		return v
	}
}

// TestEscalationCancellation: a context done before the probe, during
// the sweep or during the search past it is reported as Cancelled —
// never as a refutation, never as a complete answer.
func TestEscalationCancellation(t *testing.T) {
	c, g := chainNegative(t, 7, 6)
	opts := Options{MaxNodes: 5000}.normalized()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// Mid-probe: the pass polls at node 0.
	if res, how := checkHow(cancelled, c, g, opts); !res.Cancelled || res.Subsumes || res.Complete || how == byRefuter {
		t.Fatalf("cancelled before the probe: %+v by %d", res, how)
	}

	// Mid-refuter: between node 0 and the stop the pass does not poll, so
	// a context done in that window is first seen by the sweep. Drive the
	// stop by hand on a matcher that has just spent its probe.
	cg := CompileGround(nil, g)
	m := matcherPool.Get().(*matcher)
	defer m.release()
	m.cc.compile(cg.in, c)
	if !m.bind(&m.cc, cg) {
		t.Fatal("chain-negative must bind")
	}
	m.done, m.cancelled, m.how = cancelled.Done(), false, bySearch
	m.probing, m.budget, m.maxNodes = true, opts.MaxNodes, probeNodes
	if !m.escalate() || !m.cancelled || m.how == byRefuter {
		t.Fatalf("a sweep under a done context must stop the pass as cancelled: cancelled=%v how=%d", m.cancelled, m.how)
	}
	m.done, m.cancelled, m.probing = nil, false, true
	if !m.escalate() || m.cancelled || m.how != byRefuter {
		t.Fatalf("the same sweep under a live context must refute: cancelled=%v how=%d", m.cancelled, m.how)
	}

	// Mid-search: an unrefutable instance under a huge budget is stopped
	// by its deadline long after the sweep has come and gone.
	hc, hg := hardInstance(t, 9)
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer stop()
	res, how := checkHow(ctx, hc, hg, Options{MaxNodes: 1 << 30})
	if !res.Cancelled || res.Subsumes || res.Complete || res.Nodes <= probeNodes || how != bySearch {
		t.Fatalf("cancelled past the stop: %+v by %d", res, how)
	}
}

// TestForwardPassWholeRefuted: a whole-clause test that outlives the
// probe and is refuted is reported as such, and the pass still keeps
// exactly the literals independent checks keep. On the chain, r(Y6) is
// what the prefix cannot take: q(Y6) narrowed Y6 to {v1,v2}. On the
// backward chain it is d(Y6): keeping c(Z) narrowed Z, and propagation
// narrowed Y6 through b to the vertices whose b-value is c.
func TestForwardPassWholeRefuted(t *testing.T) {
	chainC, chainG := chainNegative(t, 7, 6)
	backC, backG := backwardNegative(t, 7, 6)
	for _, tc := range []struct {
		name string
		c, g *logic.Clause
	}{{"chain-negative", chainC, chainG}, {"backward-negative", backC, backG}} {
		opts := Options{MaxNodes: 5000}
		got := ForwardPass(context.Background(), tc.c, CompileGround(nil, tc.g), opts)
		if !got.HeadMatches || got.Covers || !got.WholeRefuted {
			t.Fatalf("%s: expected the whole clause refuted at the stop, got %+v", tc.name, got)
		}
		if got.Refuted != 1 || len(got.Kept) != len(tc.c.Body)-1 {
			t.Fatalf("%s: expected every literal but the last kept, got %+v", tc.name, got)
		}
		requireForwardSound(t, tc.name, tc.c, tc.g, opts, exact())
	}
}

// TestCheckClauseStaleSymbolsPastTheStop is TestCheckClauseStaleSymbols
// for a clause that outlives the probe, so the refuter runs: it must
// read the binding's re-resolved constant, not the -1 the clause was
// compiled with — the sweep would otherwise "refute" a clause the search
// matches.
func TestCheckClauseStaleSymbolsPastTheStop(t *testing.T) {
	c, g := chainLatePositive(t, 6)
	// One more condition on the last vertex, through a constant no table
	// holds when the clause is compiled. Every vertex satisfies it, so it
	// gives the search no early anchor: the chain is still walked first.
	c.Body = append(c.Body, logic.NewLiteral("tag", logic.Var("Y6"), logic.Const("late")))
	for i := 0; i < 7; i++ {
		g.Body = append(g.Body, logic.NewLiteral("tag", logic.Const(fmt.Sprintf("v%d", i)), logic.Const("late")))
	}

	in := logic.NewInterner()
	in.InternAll("h", "e", "q", "r", "tag")
	cc := CompileClause(in, c)
	if !cc.stale {
		t.Fatal("the clause must hold a symbol unresolved at compile time")
	}
	cg := CompileGround(in, g)
	opts := Options{MaxNodes: 1 << 30}
	want := legacyCheck(context.Background(), c, g, opts)
	got := CheckClauseCtx(context.Background(), cc, cg, opts)
	if got != want || !got.Subsumes || got.Nodes <= probeNodes {
		t.Fatalf("stale constant past the stop: got %+v legacy %+v", got, want)
	}
	// And the sweep itself, on the stale clause's binding, finds support
	// for tag(Y6,late) — where the id the clause was compiled with has none.
	m := matcherPool.Get().(*matcher)
	defer m.release()
	if !m.bind(cc, cg) || m.refutes() {
		t.Fatal("the sweep refuted a clause that subsumes: it read a stale id")
	}
	tag := cc.lits[len(cc.lits)-1].terms
	if tag[1].val != -1 || m.supported(tag, m.lits[len(m.lits)-1].ext, &m.whole) {
		t.Fatal("the clause's own terms must still hold the stale id, which no row supports")
	}
}

// TestSteadyStateAllocations restores "a steady-state check allocates
// nothing" for the three shapes the learner runs by the hundred
// thousand: a check the probe decides, a check the refuter answers (by
// its sweep, and only after revisiting literals), and a ForwardPass step
// (refuted without a search, searched then dropped, searched to the stop
// and refuted there from the kept prefix's sets, and kept then
// propagated).
func TestSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	ctx := context.Background()
	in := logic.NewInterner()
	pos, _, bg := benchWorkload(7, 300, 60)
	posCC, posCG := CompileClause(in, pos), CompileGround(in, bg)
	nc, ng := chainNegative(t, 7, 6)
	negCC, negCG := CompileClause(in, nc), CompileGround(in, ng)
	opts := Options{MaxNodes: 5000}

	if res, how := checkHow(ctx, pos, bg, opts); !res.Subsumes || how != byProbe {
		t.Fatalf("positive must be probe-decided: %+v by %d", res, how)
	}
	if n := testing.AllocsPerRun(200, func() { CheckClauseCtx(ctx, posCC, posCG, opts) }); n != 0 {
		t.Errorf("probe-decided check: %v allocs/run", n)
	}
	if n := testing.AllocsPerRun(200, func() { CheckClauseCtx(ctx, negCC, negCG, opts) }); n != 0 {
		t.Errorf("refuted check: %v allocs/run", n)
	}
	bc, bg := backwardNegative(t, 7, 6)
	bwCC, bwCG := CompileClause(in, bc), CompileGround(in, bg)
	if res, how := checkHow(ctx, bc, bg, opts); res.Subsumes || how != byRefuter {
		t.Fatalf("backward negative must be refuted: %+v by %d", res, how)
	}
	if n := testing.AllocsPerRun(200, func() { CheckClauseCtx(ctx, bwCC, bwCG, opts) }); n != 0 {
		t.Errorf("refuted check, fixpoint: %v allocs/run", n)
	}

	// ForwardPass steps that keep nothing, so each repeats from the same
	// state: on the chain with everything up to q(Y6) kept, r(Y6) is
	// refuted against the prefix's sets; on the needs-search instance
	// s(Y,Z) has support in them, is searched and dropped; on the
	// kept-narrowed chain k(Y6,Z) is searched to the stop, whose refuter
	// copies the prefix's sets and drops it.
	sc := mustClause(t, "h(X) :- p(X,Y), q(Y,Z), s(Y,Z).")
	scg := CompileGround(in, mustClause(t, "h(a) :- p(a,b), p(a,c), q(b,d), q(c,e), s(b,e), s(c,d)."))
	kc, kg := keptNarrowedNegative(t)
	for _, tc := range []struct {
		name     string
		c        *logic.Clause
		cg       *CompiledGround
		searched bool
		how      stage
	}{
		{"refuted", nc, negCG, false, bySearch},
		{"searched", sc, scg, true, byProbe},
		{"refuted-at-the-stop", kc, CompileGround(in, kg), true, byRefuter},
	} {
		m := matcherPool.Get().(*matcher)
		m.cc.compile(in, tc.c)
		if !m.bindHead(&m.cc, tc.cg) {
			t.Fatal("head must bind")
		}
		m.kept.reset(m.nVars, m.nLocal)
		last := len(tc.c.Body) - 1
		for i := 0; i < last; i++ {
			if kept, _ := m.extend(ctx, tc.cg, opts.normalized(), i); !kept {
				t.Fatalf("%s: literal %d must be kept", tc.name, i)
			}
		}
		step := func() {
			if kept, refuted := m.extend(ctx, tc.cg, opts.normalized(), last); kept || refuted == tc.searched {
				t.Fatalf("%s step: kept=%v refuted=%v", tc.name, kept, refuted)
			}
		}
		if step(); tc.searched && m.how != tc.how {
			t.Fatalf("%s step: answered by %d, want %d", tc.name, m.how, tc.how)
		}
		if n := testing.AllocsPerRun(100, step); n != 0 {
			t.Errorf("ForwardPass %s step: %v allocs/run", tc.name, n)
		}
		m.release()
	}

	// Keeping steps, each followed by propagation over the kept prefix,
	// rerun from the bound head: on the backward chain keeping c(Z)
	// narrows Z, then through b the last vertex, so d(Y6) is refuted
	// against the prefix's sets.
	m := matcherPool.Get().(*matcher)
	defer m.release()
	m.cc.compile(in, bc)
	last := len(bc.Body) - 1
	pass := func() {
		m.bindHead(&m.cc, bwCG)
		m.kept.reset(m.nVars, m.nLocal)
		for i := 0; i <= last; i++ {
			if kept, refuted := m.extend(ctx, bwCG, opts.normalized(), i); kept == (i == last) || refuted != (i == last) {
				t.Fatalf("kept step %d: kept=%v refuted=%v", i, kept, refuted)
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(100, pass); n != 0 {
		t.Errorf("ForwardPass kept-and-propagated steps: %v allocs/run", n)
	}
}
