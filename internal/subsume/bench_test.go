package subsume

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bias"
	"repro/internal/bottom"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/logic"
)

// benchWorkload builds a synthetic (candidate, ground) pair shaped like
// the learner's hot path: a ground bottom clause with a few hundred
// literals over a modest constant pool, and a variabilized candidate
// whose match requires indexed lookups and backtracking. Deterministic
// for a given seed so before/after cells in BENCH_subsume.json compare
// the same instance.
func benchWorkload(seed int64, nLits, nConsts int) (pos, neg, ground *logic.Clause) {
	r := rand.New(rand.NewSource(seed))
	cname := func(i int) string { return fmt.Sprintf("c%d", i) }
	g := &logic.Clause{Head: logic.NewLiteral("adv", logic.Const(cname(0)), logic.Const(cname(1)))}
	// Binary join graph plus unary attributes, roughly 2:1.
	for i := 0; i < nLits; i++ {
		if i%3 == 2 {
			g.Body = append(g.Body, logic.NewLiteral("inphase",
				logic.Const(cname(r.Intn(nConsts))), logic.Const(fmt.Sprintf("ph%d", r.Intn(4)))))
			continue
		}
		g.Body = append(g.Body, logic.NewLiteral("pub",
			logic.Const(cname(r.Intn(nConsts))), logic.Const(cname(r.Intn(nConsts)))))
	}
	// Plant a guaranteed chain so the positive candidate subsumes.
	g.Body = append(g.Body,
		logic.NewLiteral("pub", logic.Const(cname(0)), logic.Const(cname(2))),
		logic.NewLiteral("pub", logic.Const(cname(2)), logic.Const(cname(1))),
		logic.NewLiteral("inphase", logic.Const(cname(2)), logic.Const("ph_planted")))

	pos = &logic.Clause{Head: logic.NewLiteral("adv", logic.Var("X"), logic.Var("Y"))}
	pos.Body = append(pos.Body,
		logic.NewLiteral("pub", logic.Var("X"), logic.Var("Z")),
		logic.NewLiteral("pub", logic.Var("Z"), logic.Var("Y")),
		logic.NewLiteral("inphase", logic.Var("Z"), logic.Const("ph_planted")))

	// The negative asks for a phase value absent from the ground side:
	// the search exhausts candidate chains before answering false.
	neg = &logic.Clause{Head: logic.NewLiteral("adv", logic.Var("X"), logic.Var("Y"))}
	neg.Body = append(neg.Body,
		logic.NewLiteral("pub", logic.Var("X"), logic.Var("Z")),
		logic.NewLiteral("pub", logic.Var("Z"), logic.Var("Y")),
		logic.NewLiteral("inphase", logic.Var("Z"), logic.Const("ph_absent")))
	return pos, neg, g
}

// BenchmarkSubsume isolates compile-vs-check cost on the subsumption hot
// path. compile-per-check is the legacy shape (every test recompiles the
// ground side, as Check still does for one-shot callers);
// compile-once-check-many is the coverage engine's shape after the
// CompiledGround cache (the ground index is built once per example and
// shared across every candidate tested against it). Results are recorded
// in BENCH_subsume.json.
func BenchmarkSubsume(b *testing.B) {
	pos, neg, g := benchWorkload(7, 300, 60)
	opts := Options{}
	sanity := func(b *testing.B) {
		b.Helper()
		if !Subsumes(pos, g, opts) {
			b.Fatal("positive candidate must subsume")
		}
		if Subsumes(neg, g, opts) {
			b.Fatal("negative candidate must not subsume")
		}
	}
	b.Run("compile-per-check", func(b *testing.B) {
		sanity(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Check(pos, g, opts)
			Check(neg, g, opts)
		}
	})
	b.Run("compile-once-check-many", func(b *testing.B) {
		sanity(b)
		cg := CompileGround(nil, g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			CheckCompiled(pos, cg, opts)
			CheckCompiled(neg, cg, opts)
		}
	})
}

// BenchmarkSubsumeEscalation has one cell per way a coverage test at the
// learner's budget ends: decided by the search before its stop (a
// cover), answered by the refuter at the stop (a negative the legacy
// matcher spends its whole budget on — refuted by the in-order sweep, or
// only once the sets are narrowed to a fixpoint), and carried past the
// stop to an exhausted budget (an arc-consistent negative no refuter of
// this kind can refute, where the refuter is pure overhead). Clause and
// ground are compiled ahead, as in the coverage engine.
func BenchmarkSubsumeEscalation(b *testing.B) {
	ctx := context.Background()
	opts := Options{MaxNodes: 5000}
	pos, _, ground := benchWorkload(7, 300, 60)
	refC, refG := chainNegative(b, 7, 6)
	backC, backG := backwardNegative(b, 7, 6)
	hardC, hardG := hardInstance(b, 7)
	for _, cell := range []struct {
		name string
		c, g *logic.Clause
		want Result
		how  stage
	}{
		{"probe-decided-cover", pos, ground, Result{Subsumes: true, Complete: true}, byProbe},
		{"refutable-exhausted-negative", refC, refG, Result{Complete: true, Nodes: probeNodes}, byRefuter},
		{"backward-refutable-negative", backC, backG, Result{Complete: true, Nodes: probeNodes}, byRefuter},
		{"ac-consistent-hard-negative", hardC, hardG, Result{Nodes: 5000}, bySearch},
	} {
		b.Run(cell.name, func(b *testing.B) {
			if got, how := checkHow(ctx, cell.c, cell.g, opts); how != cell.how ||
				got.Subsumes != cell.want.Subsumes || got.Complete != cell.want.Complete ||
				(cell.want.Nodes != 0 && got.Nodes != cell.want.Nodes) {
				b.Fatalf("%+v by %d, want %+v by %d", got, how, cell.want, cell.how)
			}
			in := logic.NewInterner()
			cc, cg := CompileClause(in, cell.c), CompileGround(in, cell.g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CheckClauseCtx(ctx, cc, cg, opts)
			}
		})
	}
}

// BenchmarkSubsumeCompileGround is the cost of one CompiledGround over a
// bottom-clause-sized ground clause and a warm intern table — what a
// cold prediction pays once per example.
func BenchmarkSubsumeCompileGround(b *testing.B) {
	_, _, g := benchWorkload(7, 300, 60)
	in := logic.NewInterner()
	if cg := CompileGround(in, g); cg.BodyLen() != len(g.Body) {
		b.Fatalf("compiled %d of %d literals", cg.BodyLen(), len(g.Body))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompileGround(in, g)
	}
}

// uwForwardPass builds one armg step of the learner on uw at scale 0.3
// (data seed 1) under its induced bias: positive i's bottom clause and
// positive j's ground bottom clause, each built as the coverage engine
// builds them (naive sampling, its own seeded clone).
func uwForwardPass(tb testing.TB, i, j int) (c, g *logic.Clause) {
	tb.Helper()
	ds, err := datagen.Generate("uw", datagen.Config{Scale: 0.3, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	pos := make([]db.Tuple, len(ds.Pos))
	for k, e := range ds.Pos {
		for _, term := range e.Terms {
			pos[k] = append(pos[k], term.Name)
		}
	}
	res, err := bias.Induce(ds.DB, ds.Target, ds.TargetAttrs, pos, bias.InduceOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	compiled, err := res.Bias.Compile(ds.DB.Schema(), ds.Target, ds.TargetArity())
	if err != nil {
		tb.Fatal(err)
	}
	if c, err = bottom.NewBuilder(ds.DB, compiled, bottom.Options{Seed: int64(i + 1)}).Construct(ds.Pos[i]); err != nil {
		tb.Fatal(err)
	}
	b := bottom.NewBuilder(ds.DB, compiled, bottom.Options{})
	if g, err = b.Ground(context.Background(), ds.Pos[j], int64(j+1)); err != nil {
		tb.Fatal(err)
	}
	return c, g
}

// BenchmarkSubsumeForwardPass is one ForwardPass — armg's forward pass,
// one prefix test per body literal — of a uw bottom clause against
// another positive's ground bottom clause, at the learner's default
// budget: 62 of its 181 searches reach the stop, so its refuter runs on
// prefixes of up to a hundred-odd kept literals. The ground clause is
// compiled ahead, as the coverage engine caches it.
func BenchmarkSubsumeForwardPass(b *testing.B) {
	ctx := context.Background()
	c, g := uwForwardPass(b, 0, 1)
	cg := CompileGround(nil, g)
	opts := Options{MaxNodes: 5000}
	if fw := ForwardPass(ctx, c, cg, opts); !fw.HeadMatches || fw.Covers || len(fw.Kept) == 0 {
		b.Fatalf("the pass must search its prefixes: %+v", fw)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForwardPass(ctx, c, cg, opts)
	}
}
