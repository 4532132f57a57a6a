package ind

import (
	"context"
	"slices"
	"sort"

	"repro/internal/db"
	"repro/internal/metrics"
)

// Refresh incrementally re-derives the database's IND set after a data
// batch, given the prior set and the relations the batch touched. The
// contract is exact equivalence: Refresh(post-batch d, prior, touched)
// returns the same INDs, in the same order, as Discover(post-batch d)
// under the same options.
//
// The incremental argument: an IND's error rate is a function of the
// distinct-value sets of its two endpoint attributes only, and an
// attribute's candidacy (the MinDistinct filter) is a function of its
// own distinct values. A batch that touched neither endpoint relation
// cannot change a pair's verdict, so its prior outcome — validated with
// some error, or pruned (absent from prior) — is carried. Pairs with a
// touched endpoint are re-validated exactly via Holds, whose NULL
// semantics and denominator match Discover's bucketed count.
//
// prior must come from a Discover (or Refresh) on the pre-batch
// database under the same Options; passing a set computed under
// different MaxError/MinDistinct breaks the carry step's soundness.
func Refresh(ctx context.Context, d *db.Database, prior []IND, touched []string, opts Options) ([]IND, error) {
	opts.normalize()
	mc := opts.Metrics
	spanStart := mc.StartSpan()
	defer mc.EndSpan(metrics.SpanINDDiscover, spanStart)

	priorErr := make(map[[2]AttrID]float64, len(prior))
	for _, ind := range prior {
		priorErr[[2]AttrID{ind.From, ind.To}] = ind.Error
	}

	attrs, distinct := collectAttributes(d, opts.MinDistinct)
	var out []IND
	for a, from := range attrs {
		if distinct[a] == 0 {
			continue
		}
		for b, to := range attrs {
			if a == b || from == to {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			mc.Inc(metrics.INDCandidates)
			if !slices.Contains(touched, from.Relation) && !slices.Contains(touched, to.Relation) {
				// Untouched endpoints: the pre-batch verdict stands. A pair
				// absent from prior was pruned (or its LHS filtered) then,
				// and its inputs have not changed.
				if e, ok := priorErr[[2]AttrID{from, to}]; ok {
					mc.Inc(metrics.INDValidated)
					mc.Observe(metrics.HistINDErrorPct, int64(e*100))
					out = append(out, IND{From: from, To: to, Error: e})
				} else {
					mc.Inc(metrics.INDPruned)
				}
				continue
			}
			e, err := Holds(d, from, to)
			if err != nil {
				// Unreachable: collectAttributes admits only attributes with
				// at least one non-NULL distinct value.
				return nil, err
			}
			if e <= opts.MaxError {
				mc.Inc(metrics.INDValidated)
				mc.Observe(metrics.HistINDErrorPct, int64(e*100))
				out = append(out, IND{From: from, To: to, Error: e})
			} else {
				mc.Inc(metrics.INDPruned)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Error != b.Error {
			return a.Error < b.Error
		}
		if a.From != b.From {
			return lessAttr(a.From, b.From)
		}
		return lessAttr(a.To, b.To)
	})
	return out, nil
}
