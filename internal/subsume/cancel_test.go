package subsume

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/logic"
)

// hardInstance builds the pigeonhole instance: a k-clique pattern that
// cannot map into k−1 vertices, which the search can only discover by
// exhausting an exponential space. Variables force deep backtracking, so
// a generous node budget keeps a single deterministic pass running for
// seconds — the worst case the ctx poll inside the budget loop exists
// for.
func hardInstance(t testing.TB, k int) (c, g *logic.Clause) {
	t.Helper()
	names := func(i int) string { return string(rune('a' + i)) }
	var gb, cb []string
	for i := 0; i < k-1; i++ {
		for j := 0; j < k-1; j++ {
			if i != j {
				gb = append(gb, "e(v"+names(i)+",v"+names(j)+")")
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				cb = append(cb, "e(Y"+names(i)+",Y"+names(j)+")")
			}
		}
	}
	return mustClause(t, "h(X) :- "+strings.Join(cb, ", ")+"."),
		mustClause(t, "h(a) :- "+strings.Join(gb, ", ")+".")
}

// TestCheckCtxCancelMidSearch: cancelling the context must interrupt an
// in-flight deterministic pass well before its node budget, and the
// result must say so.
func TestCheckCtxCancelMidSearch(t *testing.T) {
	c, g := hardInstance(t, 9)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := CheckCtx(ctx, c, g, Options{MaxNodes: 1 << 30})
	elapsed := time.Since(start)
	if !res.Cancelled {
		t.Fatalf("expected Cancelled result, got %+v after %v", res, elapsed)
	}
	if res.Subsumes || res.Complete {
		t.Fatalf("cancelled result must be inconclusive-negative: %+v", res)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; the in-search poll is not working", elapsed)
	}
}

// TestCheckCtxAlreadyCancelled: a done ctx aborts before meaningful work.
func TestCheckCtxAlreadyCancelled(t *testing.T) {
	c, g := hardInstance(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := CheckCtx(ctx, c, g, Options{MaxNodes: 1 << 30})
	if !res.Cancelled {
		t.Fatalf("expected Cancelled on pre-cancelled ctx, got %+v", res)
	}
	if res.Nodes > 1<<10 {
		t.Fatalf("pre-cancelled search still ran %d nodes", res.Nodes)
	}
}

// TestCheckCtxUncancelledUnchanged: threading a live ctx must not change
// outcomes relative to the ctx-free API.
func TestCheckCtxUncancelledUnchanged(t *testing.T) {
	c := mustClause(t, "h(X) :- p(X,Y1), p(Y1,Y2), q(Y2).")
	g := mustClause(t, "h(a) :- p(a,b), p(b,c), q(c).")
	plain := Check(c, g, Options{})
	ctxed := CheckCtx(context.Background(), c, g, Options{})
	if plain != ctxed {
		t.Fatalf("ctx variant diverged: %+v vs %+v", plain, ctxed)
	}
	if !ctxed.Subsumes {
		t.Fatal("chain must subsume")
	}
}

// TestCheckFaultInjection: an injected fault at subsume.check degrades
// the test to an inconclusive negative.
func TestCheckFaultInjection(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Enable("subsume.check", faultpoint.Fault{Err: context.Canceled, Times: 1})
	c := mustClause(t, "h(X) :- p(X,Y).")
	g := mustClause(t, "h(a) :- p(a,b).")
	res := Check(c, g, Options{})
	if !res.Cancelled || res.Subsumes {
		t.Fatalf("injected fault must yield inconclusive negative, got %+v", res)
	}
	// The fault window is exhausted: the next check is normal again.
	if !Subsumes(c, g, Options{}) {
		t.Fatal("second check must succeed after the fault window")
	}
}
