package learn

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/report"
	"repro/internal/subsume"
)

// fakeTransport computes every pair it is handed on an in-process engine
// of its own, or fails with err, and records each block it was handed.
type fakeTransport struct {
	truth *CoverageEngine
	err   error
	calls []fakeCall
}

type fakeCall struct{ clauses, examples []string }

func (f *fakeTransport) Resolve(ctx context.Context, clauses []*logic.Clause, examples []Example) ([][]bool, error) {
	var call fakeCall
	for _, c := range clauses {
		call.clauses = append(call.clauses, c.String())
	}
	for _, e := range examples {
		call.examples = append(call.examples, e.String())
	}
	f.calls = append(f.calls, call)
	if f.err != nil {
		return nil, f.err
	}
	return f.truth.ResolveLocal(ctx, clauses, examples)
}

func keysOf[T fmt.Stringer](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.String()
	}
	return out
}

// TestResolveScreensAndStores pins the one store boundary: the engine
// looks every pair up, hands the transport only the clauses and examples
// that have a miss, stores every verdict that comes back, and stores
// nothing when the transport fails.
func TestResolveScreensAndStores(t *testing.T) {
	d, pos, neg := uwWorld(t, 12, 8)
	all := append(append([]Example(nil), pos...), neg...)
	engine := func() *CoverageEngine {
		return NewCoverage(bottom.NewBuilder(d, uwLearnBias(t, d), bottom.Options{Depth: 1}), subsume.Options{})
	}
	ctx := context.Background()
	clauses := []*logic.Clause{
		logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- student(X)."),
		logic.MustParseClause("advisedBy(X,Y) :- professor(Y)."),
	}
	want, err := engine().CountMany(ctx, clauses, all)
	if err != nil {
		t.Fatal(err)
	}
	if want[0] != len(pos) || want[1] != len(all) {
		t.Fatalf("fixture: truth counts %v", want)
	}

	t.Run("screens-and-stores", func(t *testing.T) {
		ft := &fakeTransport{truth: engine()}
		ce := engine()
		ce.SetTransport(ft)
		// Settle clause 1 everywhere and every clause on all[1], in
		// process: Covers never leaves the process.
		for _, e := range all {
			if _, err := ce.Covers(ctx, clauses[1], e); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range clauses {
			if _, err := ce.Covers(ctx, c, all[1]); err != nil {
				t.Fatal(err)
			}
		}
		if len(ft.calls) != 0 {
			t.Fatalf("Covers reached the transport %d times", len(ft.calls))
		}
		got, err := ce.CountMany(ctx, clauses, all)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("counts %v, want %v", got, want)
		}
		if len(ft.calls) != 1 {
			t.Fatalf("%d transport calls, want 1", len(ft.calls))
		}
		missed := slices.Delete(append([]Example(nil), all...), 1, 2)
		if c := ft.calls[0]; !slices.Equal(c.clauses, keysOf([]*logic.Clause{clauses[0], clauses[2]})) || !slices.Equal(c.examples, keysOf(missed)) {
			t.Errorf("transport got clauses %v over %d examples; want the two with a miss over the %d examples with a miss",
				c.clauses, len(c.examples), len(missed))
		}
		if _, err := ce.CountMany(ctx, clauses, all); err != nil {
			t.Fatal(err)
		}
		if len(ft.calls) != 1 {
			t.Errorf("a repeated CountMany reached the transport: every returned verdict must be stored")
		}
	})

	t.Run("failure-stores-nothing", func(t *testing.T) {
		ft := &fakeTransport{truth: engine(), err: fmt.Errorf("fleet gone: %w", context.Canceled)}
		ce := engine()
		ce.SetTransport(ft)
		rep := report.New()
		ce.SetReport(rep)
		if _, err := ce.CountMany(ctx, clauses, all); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want the transport's cancellation", err)
		}
		if n := rep.Count(report.CoverageAbandoned); n != 1 {
			t.Errorf("%d CoverageAbandoned events, want 1", n)
		}
		ft.err = nil
		got, err := ce.CountMany(ctx, clauses, all)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("counts %v, want %v", got, want)
		}
		if len(ft.calls) != 2 {
			t.Fatalf("%d transport calls, want 2: nothing may be stored by the failed one", len(ft.calls))
		}
		if c := ft.calls[1]; len(c.clauses) != len(clauses) || len(c.examples) != len(all) {
			t.Errorf("after a failed call the transport got %d×%d pairs, want all %d×%d: nothing may be stored",
				len(c.clauses), len(c.examples), len(clauses), len(all))
		}
	})
}
