package autobias_test

import (
	"context"
	"testing"

	autobias "repro"
	"repro/internal/schematx"
	"repro/internal/testkit"
)

// TestSchemaVariantDifferential is the cross-variant differential suite
// (DESIGN.md §14): for UW, HIV and IMDb, every catalog transform
// (vertical partition, FD denormalization, join decomposition) is
// round-trip-proved, learned on, and required to
//
//   - be internally deterministic: theories bit-identical at workers
//     1/4/8 and across the sharded transport, and
//   - agree exactly with the base schema's theory on every held-out
//     example — schema independence as a testable property.
//
// Held-out examples are generated once from the base dataset (the tail
// of the Pos/Neg streams, disjoint from the training split); the target
// relation is never transformed, so the same examples are valid in
// every variant.
func TestSchemaVariantDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-variant suite learns ~16 theories per dataset; skipped in -short")
	}
	cases := []struct {
		name string
		// maxLiterals caps bottom-clause size. The indirection literals a
		// transform introduces land at the deepest frontier level, so the
		// cap must clear the variant schema's depth-3 frontier: the default
		// 400 (and even 1500) truncates the fragment-deref literals on the
		// 46-relation IMDb schema.
		maxLiterals int
		// beamWidth widens the search where decomposed schemas need
		// longer literal chains (two literals where the base needs one),
		// whose intermediate generalizations score low and fall off a
		// narrow beam.
		beamWidth int
	}{
		{name: "uw", maxLiterals: 6000, beamWidth: 8},
		{name: "hiv", maxLiterals: 6000, beamWidth: 8},
		{name: "imdb", maxLiterals: 3000, beamWidth: 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ds, err := autobias.GenerateDataset(tc.name, 0.1, 1)
			if err != nil {
				t.Fatal(err)
			}
			task, heldOut := splitHeldOut(t, ds, 8, 40, 24)
			transforms, err := schematx.CatalogFor(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			opts := autobias.Options{
				Method: autobias.MethodManual,
				// Depth 3: every catalog transform adds at most one
				// indirection hop (fragment deref, dictionary resolve) to
				// the depth-2 base concepts, so 3 gives each variant the
				// same semantic reach.
				Depth:       3,
				MaxLiterals: tc.maxLiterals,
				BeamWidth:   tc.beamWidth,
				Seed:        1,
			}
			rep, err := testkit.CrossVariantDifferential(context.Background(), task, opts, testkit.VariantConfig{
				Transforms:  transforms,
				Workers:     []int{1, 4, 8},
				ShardLayout: [][]string{{"s0"}, {"s1"}},
				HeldOut:     heldOut,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(rep.Legs), len(transforms)+1; got != want {
				t.Fatalf("report has %d legs, want %d", got, want)
			}
			for _, d := range rep.Diffs {
				t.Error(d)
			}
			// The suite must not pass vacuously: the base theory has to
			// learn something and the held-out set must exercise both
			// verdicts.
			base := rep.Legs[0]
			if base.Leg.Clauses == 0 {
				t.Error("base leg learned no clauses; the equivalence check is vacuous")
			}
			covered := 0
			for _, v := range base.Verdicts {
				if v {
					covered++
				}
			}
			if covered == 0 || covered == len(base.Verdicts) {
				t.Errorf("base theory covers %d/%d held-out examples; need both verdicts represented", covered, len(base.Verdicts))
			}
		})
	}
}

// splitHeldOut carves a training task (trainPos positives, trainNeg
// negatives) and a disjoint held-out set (half positives, half
// negatives from the remaining tails) out of a generated dataset.
func splitHeldOut(t *testing.T, ds *autobias.Dataset, trainPos, trainNeg, heldOut int) (autobias.Task, []autobias.Example) {
	t.Helper()
	task := autobias.TaskFromDataset(ds)
	half := heldOut / 2
	if len(task.Pos) < trainPos+half || len(task.Neg) < trainNeg+half {
		t.Fatalf("dataset too small to split: %d pos, %d neg (need %d+%d, %d+%d)",
			len(task.Pos), len(task.Neg), trainPos, half, trainNeg, half)
	}
	var out []autobias.Example
	out = append(out, task.Pos[trainPos:trainPos+half]...)
	out = append(out, task.Neg[trainNeg:trainNeg+half]...)
	task.Pos = task.Pos[:trainPos]
	task.Neg = task.Neg[:trainNeg]
	return task, out
}
