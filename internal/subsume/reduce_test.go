package subsume

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/bias"
	"repro/internal/bottom"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/logic"
)

// goldenTheories reads every testdata/golden theory, keyed by file name,
// with the dataset its header names.
func goldenTheories(t *testing.T) (map[string]*logic.Definition, map[string]string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.pl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden theories: %v", err)
	}
	header := regexp.MustCompile(`(?m)^%% dataset=(\S+) `)
	defs, datasets := map[string]*logic.Definition{}, map[string]string{}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		def, err := logic.ParseDefinition(string(src))
		m := header.FindSubmatch(src)
		if err != nil || m == nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := filepath.Base(path)
		defs[name], datasets[name] = def, string(m[1])
	}
	return defs, datasets
}

// TestReduceGoldenClauses pins Reduce on the golden theories: uw's first
// clause loses 23 of its 38 literals, and every other golden clause is
// already reduced.
func TestReduceGoldenClauses(t *testing.T) {
	defs, _ := goldenTheories(t)
	n := 0
	for name, def := range defs {
		for i, c := range def.Clauses {
			got := Reduce(c, Options{})
			want := len(c.Body)
			if name == "uw.pl" && i == 0 {
				if want != 38 {
					t.Fatalf("uw.pl clause 1 has %d literals, want 38", want)
				}
				want = 15
			}
			if len(got.Body) != want {
				t.Errorf("%s clause %d: %d → %d literals, want %d:\n%v", name, i+1, len(c.Body), len(got.Body), want, got)
			}
			n++
		}
	}
	if n != 12 {
		t.Errorf("%d golden clauses, want 12", n)
	}
}

// TestReduceFrozenNamesClash reduces a clause whose constants look like
// frozen variables: freezing Y as the constant "$Y" would let p(X,Y)
// map onto p(X,$Y) with r(Y) onto r($Y), dropping a literal the clause
// needs.
func TestReduceFrozenNamesClash(t *testing.T) {
	for _, src := range []string{
		`t(X) :- p(X,Y), r(Y), p(X,"$Y").`,
		`t(X) :- p(X,Y), r(Y), p(X,"$$Y"), p(X,"$Y").`,
	} {
		c := mustClause(t, src)
		frozen := c.Apply(freezer(c))
		if got := Reduce(c, Options{}); !got.Equal(c) {
			t.Errorf("Reduce(%v) = %v, frozen as %v", c, got, frozen)
		}
	}
	// Redundancy is still found alongside such constants.
	c := mustClause(t, `t(X) :- p(X,Y), p(X,Z), r(Y), p(X,"$Y").`)
	want := mustClause(t, `t(X) :- p(X,Y), r(Y), p(X,"$Y").`)
	if got := Reduce(c, Options{}); !got.Equal(want) {
		t.Errorf("Reduce(%v) = %v, want %v", c, got, want)
	}
}

// TestReducePreservesVerdicts checks each golden clause, reduced and
// unreduced, against the ground bottom clause of every example of its
// dataset as TestBCDigests in internal/bottom builds them (scale 0.3,
// seed 1, induced bias, each example's Ground build with seed i+1,
// three samplers): wherever both checks are complete they agree.
func TestReducePreservesVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every bottom clause of five datasets")
	}
	defs, datasets := goldenTheories(t)
	ctx := context.Background()
	in := logic.NewInterner()
	grounds := map[string][]*CompiledGround{}
	for _, name := range datasets {
		if grounds[name] != nil {
			continue
		}
		ds, err := datagen.Generate(name, datagen.Config{Scale: 0.3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]db.Tuple, len(ds.Pos))
		for i, e := range ds.Pos {
			for _, term := range e.Terms {
				pos[i] = append(pos[i], term.Name)
			}
		}
		res, err := bias.Induce(ds.DB, ds.Target, ds.TargetAttrs, pos, bias.InduceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := res.Bias.Compile(ds.DB.Schema(), ds.Target, ds.TargetArity())
		if err != nil {
			t.Fatal(err)
		}
		examples := append(append([]logic.Literal(nil), ds.Pos...), ds.Neg...)
		for _, s := range []bottom.Strategy{bottom.Naive, bottom.Random, bottom.Stratified} {
			b := bottom.NewBuilder(ds.DB, compiled, bottom.Options{Strategy: s})
			for i, e := range examples {
				g, err := b.Ground(ctx, e, int64(i+1))
				if err != nil {
					t.Fatal(err)
				}
				grounds[name] = append(grounds[name], CompileGround(in, g))
			}
		}
	}
	for name, def := range defs {
		for i, c := range def.Clauses {
			reduced := Reduce(c, Options{})
			cc, rc := CompileClause(in, c), CompileClause(in, reduced)
			compared, covered := 0, 0
			for _, cg := range grounds[datasets[name]] {
				a, b := CheckClauseCtx(ctx, cc, cg, Options{}), CheckClauseCtx(ctx, rc, cg, Options{})
				if !a.Complete || !b.Complete {
					continue
				}
				if a.Subsumes != b.Subsumes {
					t.Errorf("%s clause %d: unreduced %v, reduced %v", name, i+1, a.Subsumes, b.Subsumes)
				}
				compared++
				if a.Subsumes {
					covered++
				}
			}
			t.Logf("%s clause %d (%d → %d literals): %d of %d BCs compared, %d covered",
				name, i+1, len(c.Body), len(reduced.Body), compared, len(grounds[datasets[name]]), covered)
		}
	}
}
