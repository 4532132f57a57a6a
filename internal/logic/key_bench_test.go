package logic_test

import (
	"testing"

	"repro/internal/bias"
	"repro/internal/bottom"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/logic"
)

// uwBottomClause is a uw bottom clause (scale 0.3, data seed 1, induced
// bias, naive sampling, built on the first positive as the learner builds
// its seed clause, head-connected): 337 body literals.
func uwBottomClause(b *testing.B) *logic.Clause {
	ds, err := datagen.Generate("uw", datagen.Config{Scale: 0.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pos := make([]db.Tuple, len(ds.Pos))
	for k, e := range ds.Pos {
		for _, term := range e.Terms {
			pos[k] = append(pos[k], term.Name)
		}
	}
	res, err := bias.Induce(ds.DB, ds.Target, ds.TargetAttrs, pos, bias.InduceOptions{})
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := res.Bias.Compile(ds.DB.Schema(), ds.Target, ds.TargetArity())
	if err != nil {
		b.Fatal(err)
	}
	bc, err := bottom.NewBuilder(ds.DB, compiled, bottom.Options{}).Construct(ds.Pos[0])
	if err != nil {
		b.Fatal(err)
	}
	return bc.PruneNotHeadConnected()
}

// BenchmarkClauseKey renders the canonical key of uwBottomClause: Key,
// the one-pass renderer, against Standardize, the rename-then-print
// reference it must equal byte for byte.
func BenchmarkClauseKey(b *testing.B) {
	bc := uwBottomClause(b)
	if bc.Key() != logic.OracleKey(bc) {
		b.Fatal("Key differs from the reference")
	}
	b.Logf("%d body literals, %d variables, %d-byte key", len(bc.Body), len(bc.Variables()), len(bc.Key()))
	for _, leg := range []struct {
		name string
		key  func(*logic.Clause) string
	}{{"Key", (*logic.Clause).Key}, {"Standardize", logic.OracleKey}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = leg.key(bc)
			}
		})
	}
}

// BenchmarkHeadConnected prunes uwBottomClause, the call negative
// reduction makes for every trial it builds.
func BenchmarkHeadConnected(b *testing.B) {
	bc := uwBottomClause(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bc.HeadConnected()
	}
}
