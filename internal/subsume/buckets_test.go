package subsume

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// TestDeepBacktrackingBucketsConsistent stresses the incremental
// degree-bucket maintenance: chains that force many bind/unbind cycles
// must still find solutions placed at the end of candidate lists.
func TestDeepBacktrackingBucketsConsistent(t *testing.T) {
	// Ground: path graph v0 -> v1 -> ... -> v9 plus many distractor
	// edges from v0.
	var body []logic.Literal
	for i := 0; i < 9; i++ {
		body = append(body, logic.NewLiteral("e",
			logic.Const(fmt.Sprintf("v%d", i)), logic.Const(fmt.Sprintf("v%d", i+1))))
	}
	for i := 0; i < 20; i++ {
		body = append(body, logic.NewLiteral("e",
			logic.Const("v0"), logic.Const(fmt.Sprintf("dead%d", i))))
	}
	body = append(body, logic.NewLiteral("goal", logic.Const("v9")))
	g := &logic.Clause{Head: logic.NewLiteral("h", logic.Const("v0")), Body: body}

	// Clause: 9-hop chain from X to a goal.
	c := logic.MustParseClause(
		"h(X) :- e(X,A1), e(A1,A2), e(A2,A3), e(A3,A4), e(A4,A5), e(A5,A6), e(A6,A7), e(A7,A8), e(A8,A9), goal(A9).")
	res := Check(c, g, Options{})
	if !res.Subsumes || !res.Complete {
		t.Fatalf("chain must subsume: %+v", res)
	}
}

// TestRunReusableAcrossPasses ensures the pooled matcher's state reset is
// complete: a pass must not leave buckets or degrees behind that corrupt
// the next one, shown with several sequential Checks.
func TestRunReusableAcrossPasses(t *testing.T) {
	g := logic.MustParseClause("h(a) :- p(a,b), p(b,c), p(c,d).")
	c := logic.MustParseClause("h(X) :- p(X,Y), p(Y,Z), p(Z,W).")
	for i := 0; i < 5; i++ {
		if !Subsumes(c, g, Options{Seed: int64(i + 1)}) {
			t.Fatalf("pass %d failed", i)
		}
	}
	neg := logic.MustParseClause("h(X) :- p(X,Y), p(Y,X).")
	for i := 0; i < 5; i++ {
		if Subsumes(neg, g, Options{Seed: int64(i + 1)}) {
			t.Fatalf("pass %d wrongly subsumed", i)
		}
	}
}

// TestArityMismatchBetweenClauseAndGround guards candidateBound's arity
// check: a clause literal whose arity differs from the ground extent's
// must simply never match.
func TestArityMismatchBetweenClauseAndGround(t *testing.T) {
	g := logic.MustParseClause("h(a) :- p(a,b).")
	c := logic.MustParseClause("h(X) :- p(X).")
	if Subsumes(c, g, Options{}) {
		t.Fatal("arity mismatch must not subsume")
	}
}

// TestLargeRandomConsistency cross-checks the optimized matcher against
// brute force on larger random instances than the main property test.
func TestLargeRandomConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	consts := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 100; trial++ {
		g := &logic.Clause{Head: logic.NewLiteral("h", logic.Const(consts[r.Intn(5)]))}
		for i, n := 0, 3+r.Intn(10); i < n; i++ {
			g.Body = append(g.Body, logic.NewLiteral("p",
				logic.Const(consts[r.Intn(5)]), logic.Const(consts[r.Intn(5)])))
		}
		c := &logic.Clause{Head: logic.NewLiteral("h", logic.Var("X"))}
		vars := []string{"X", "Y", "Z", "W"}
		for i, n := 0, 1+r.Intn(5); i < n; i++ {
			mk := func() logic.Term {
				if r.Intn(5) == 0 {
					return logic.Const(consts[r.Intn(5)])
				}
				return logic.Var(vars[r.Intn(4)])
			}
			c.Body = append(c.Body, logic.NewLiteral("p", mk(), mk()))
		}
		got := Check(c, g, Options{})
		if !got.Complete {
			t.Fatalf("small instance must complete")
		}
		if got.Subsumes != bruteForce(c, g) {
			t.Fatalf("mismatch: %v vs %v for %v against %v", got.Subsumes, !got.Subsumes, c, g)
		}
	}
}
