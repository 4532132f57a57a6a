package autobias

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bottom"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/subsume"
)

// armgOracleBudgets are the subsumption budgets TestARMGOracle runs at:
// a starved one and the learner's. The subsumption default (0 = 100000
// nodes, where one reference pass over an induced-bias pair runs for
// seconds and the leg for most of a minute) is added under the `slow`
// build tag, which CI's differential job sets.
var armgOracleBudgets = []int{50, 5000}

// referenceARMG is the armg forward pass as it ran before
// subsume.ForwardPass existed, kept as the oracle: one from-scratch
// subsumption test for the head, one for the whole clause, and one per
// body literal over the kept prefix plus that literal. No refuter, no
// incremental compilation — every decision is an independent
// CheckCompiledCtx. It is internal/subsume/oracle_test.go's
// referenceForward with armg's pruning around it, restated here because
// this is the one oracle test that needs the bundled datasets.
func referenceARMG(ctx context.Context, c, ground *logic.Clause, opts subsume.Options) *logic.Clause {
	cg := subsume.CompileGround(nil, ground)
	head := &logic.Clause{Head: c.Head}
	if !subsume.CheckCompiledCtx(ctx, head, cg, opts).Subsumes {
		return nil
	}
	if subsume.CheckCompiledCtx(ctx, c, cg, opts).Subsumes {
		return c.PruneNotHeadConnected()
	}
	kept := make([]logic.Literal, 0, len(c.Body))
	trial := &logic.Clause{Head: c.Head}
	for _, lit := range c.Body {
		trial.Body = append(kept, lit)
		if subsume.CheckCompiledCtx(ctx, trial, cg, opts).Subsumes {
			kept = trial.Body
		}
	}
	return (&logic.Clause{Head: c.Head, Body: kept}).PruneNotHeadConnected()
}

// TestARMGOracle: learn.ARMGCtx must return the clause the reference
// pass returns for every (bottom clause, ground BC) pair of the first 10
// positives of every bundled dataset, under the expert and the induced
// bias, at a starved budget and the learner's budget, and (under -tags
// slow) at the subsumption default for the first 3 positives' pairs — and
// so must the pass over a ground BC compiled into a shared intern
// table, the form the coverage engine hands armg.
func TestARMGOracle(t *testing.T) {
	ctx := context.Background()
	for _, name := range DatasetNames() {
		for _, method := range []Method{MethodManual, MethodAutoBias} {
			t.Run(fmt.Sprintf("%s/%s", name, method), func(t *testing.T) {
				t.Parallel()
				ds, err := GenerateDataset(name, 0.1, 1)
				if err != nil {
					t.Fatal(err)
				}
				task := TaskFromDataset(ds)
				opts := Options{Method: method, Seed: 1}
				b, _, _, err := buildBiasFull(task, opts)
				if err != nil {
					t.Fatal(err)
				}
				compiled, err := b.Compile(task.DB.Schema(), task.Target, len(task.TargetAttrs))
				if err != nil {
					t.Fatal(err)
				}
				builder := bottom.NewBuilder(task.DB, compiled, opts.bottomOptions())
				in := logic.NewInterner()
				pos := task.Pos[:min(10, len(task.Pos))]
				bcs := make([]*logic.Clause, len(pos))
				grounds := make([]*logic.Clause, len(pos))
				shared := make([]*subsume.CompiledGround, len(pos))
				for i, e := range pos {
					bc, err := builder.Construct(e)
					if err != nil {
						t.Fatal(err)
					}
					bcs[i] = bc.PruneNotHeadConnected()
					if grounds[i], err = builder.ConstructGround(e); err != nil {
						t.Fatal(err)
					}
					shared[i] = subsume.CompileGround(in, grounds[i])
				}
				for _, budget := range armgOracleBudgets {
					sopts := subsume.Options{MaxNodes: budget, Seed: 1}
					for i, bc := range bcs {
						for j, g := range grounds {
							if budget == 0 && (i >= 3 || j >= 3) || testing.Short() && budget != 5000 {
								continue
							}
							want := referenceARMG(ctx, bc, g, sopts)
							got := learn.ARMGCtx(ctx, bc, g, sopts)
							if (got == nil) != (want == nil) || (got != nil && got.String() != want.String()) {
								t.Fatalf("budget %d, bc %d vs ground %d: ARMGCtx diverges from the reference pass\n got: %v\nwant: %v", budget, i, j, got, want)
							}
							fw := subsume.ForwardPass(ctx, bc, shared[j], sopts)
							var viaShared *logic.Clause
							switch {
							case fw.Covers:
								viaShared = bc.PruneNotHeadConnected()
							case fw.HeadMatches:
								body := make([]logic.Literal, len(fw.Kept))
								for k, li := range fw.Kept {
									body[k] = bc.Body[li]
								}
								viaShared = (&logic.Clause{Head: bc.Head, Body: body}).PruneNotHeadConnected()
							}
							if (viaShared == nil) != (want == nil) || (want != nil && viaShared.String() != want.String()) {
								t.Fatalf("budget %d, bc %d vs ground %d: ForwardPass over a shared intern table diverges\n got: %v\nwant: %v", budget, i, j, viaShared, want)
							}
							if !slices.IsSorted(fw.Kept) {
								t.Fatalf("kept indices out of order: %v", fw.Kept)
							}
						}
					}
				}
			})
		}
	}
}
