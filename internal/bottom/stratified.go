package bottom

import (
	"sort"

	"repro/internal/db"
	"repro/internal/logic"
)

// maxJoinValues bounds the value set passed down one stratified
// recursion step; without it π_B(I_R) can be the whole column of a large
// relation and the traversal degenerates to a full scan per level.
const maxJoinValues = 200

// stratifiedTuples implements Algorithm 4: a depth-first traversal of
// the semi-join tree that, at the deepest level, samples every stratum —
// one stratum per distinct value of each constant-able attribute (or the
// whole relation when none) — and, while backtracking, adds the parent
// tuples that join the sampled child tuples.
func (b *Builder) stratifiedTuples(example logic.Literal) []foundTuple {
	var out []foundTuple
	budget := b.opts.MaxLiterals
	for i, term := range example.Terms {
		for _, ra := range b.plan.targetPlusTargets(i) {
			sub := b.stratRec(ra.Relation, ra.Attr, map[string]bool{term.Name: true}, 1, &budget)
			out = append(out, sub...)
			if budget <= 0 {
				return out
			}
		}
	}
	return out
}

// stratRec is the StratRec function of Algorithm 4. M is the join-value
// set flowing down from the parent; iter counts from 1 to Depth.
func (b *Builder) stratRec(relName string, attr int, m map[string]bool, iter int, budget *int) []foundTuple {
	if *budget <= 0 || b.interrupted() {
		return nil
	}
	rel := b.snap.Relation(relName)
	if rel == nil || rel.Len() == 0 {
		return nil
	}
	ir := rel.SelectIn(attr, m)
	if len(ir) == 0 {
		return nil
	}
	b.noteDepth(iter)
	if iter >= b.opts.Depth {
		return b.sampleStrata(relName, attr, ir, budget)
	}

	var out []foundTuple
	descended := false
	for bAttr, childTargets := range b.plan.rels[relName].plus {
		if len(childTargets) == 0 {
			continue
		}
		vals := projectDistinct(ir, bAttr)
		if len(vals) == 0 {
			continue
		}
		for _, ra := range childTargets {
			if *budget <= 0 {
				return out
			}
			is := b.stratRec(ra.Relation, ra.Attr, vals, iter+1, budget)
			if len(is) == 0 {
				continue
			}
			descended = true
			out = append(out, is...)
			// Backtrack step: keep the parent tuples that join the
			// sampled child tuples (σ_{B ∈ π_{B'}(I_S)}(I_R)). Only
			// direct children count — is also carries deeper descendants.
			joined := make(map[string]bool)
			for _, ft := range is {
				if ft.rel == ra.Relation && ft.viaAttr == ra.Attr {
					joined[ft.tuple[ft.viaAttr]] = true
				}
			}
			for _, t := range ir {
				if joined[t[bAttr]] {
					out = append(out, foundTuple{rel: relName, viaAttr: attr, tuple: t})
					*budget--
					if *budget <= 0 {
						return out
					}
				}
			}
		}
	}
	if !descended {
		// Leaf in practice (no joinable children had matches): sample the
		// strata here so the branch still contributes.
		return b.sampleStrata(relName, attr, ir, budget)
	}
	return out
}

// sampleStrata partitions ir into strata and uniformly samples
// SampleSize tuples from each: one stratum per distinct value of each
// constant-able attribute, or a single stratum holding everything when
// the relation has no constant-able attribute (§4.3.2).
func (b *Builder) sampleStrata(relName string, viaAttr int, ir []db.Tuple, budget *int) []foundTuple {
	constAttrs := b.plan.rels[relName].constAttrs
	var out []foundTuple
	emit := func(stratum []db.Tuple) {
		for _, t := range b.sampleUniform(stratum) {
			out = append(out, foundTuple{rel: relName, viaAttr: viaAttr, tuple: t})
			*budget--
			if *budget <= 0 {
				return
			}
		}
	}
	if len(constAttrs) == 0 {
		emit(ir)
		return out
	}
	for _, ca := range constAttrs {
		groups := make(map[string][]db.Tuple)
		for _, t := range ir {
			groups[t[ca]] = append(groups[t[ca]], t)
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic stratum order
		for _, k := range keys {
			if *budget <= 0 || b.interrupted() {
				return out
			}
			emit(groups[k])
		}
	}
	return out
}

// projectDistinct returns the distinct values of column attr across the
// tuples, capped at maxJoinValues, as a set.
func projectDistinct(tuples []db.Tuple, attr int) map[string]bool {
	out := make(map[string]bool)
	for _, t := range tuples {
		if !out[t[attr]] {
			out[t[attr]] = true
			if len(out) >= maxJoinValues {
				break
			}
		}
	}
	return out
}
