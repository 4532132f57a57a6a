package bottom

import (
	"slices"

	"repro/internal/db"
	"repro/internal/logic"
)

// maxJoinValues bounds the value set passed down one stratified
// recursion step; without it π_B(I_R) can be the whole column of a large
// relation and the traversal degenerates to a full scan per level.
const maxJoinValues = 200

// stratLevel is one recursion level's scratch in a stratified build,
// reused by every call at that level: the selection I_R, the value set
// its children descend with, and the values the backtrack keeps. Value
// sets are sorted and distinct.
type stratLevel struct {
	ir     []db.Tuple
	vals   []string
	joined []string
}

// stratifiedTuples implements Algorithm 4: a depth-first traversal of
// the semi-join tree that, at the deepest level, samples every stratum —
// one stratum per distinct value of each constant-able attribute (or the
// whole relation when none) — and, while backtracking, adds the parent
// tuples that join the sampled child tuples. The tuples are appended to
// found.
func (st *state) stratifiedTuples(example logic.Literal) {
	if len(st.strat) <= st.b.opts.Depth {
		st.strat = make([]stratLevel, st.b.opts.Depth+1) // level 0 holds the root value set
	}
	budget := st.b.opts.MaxLiterals
	for i, term := range example.Terms {
		root := append(st.strat[0].vals[:0], term.Name)
		st.strat[0].vals = root
		for _, ra := range st.b.plan.targetPlusTargets(i) {
			st.stratRec(ra.Relation, ra.Attr, root, 1, &budget)
			if budget <= 0 {
				return
			}
		}
	}
}

// stratRec is the StratRec function of Algorithm 4, appending what it
// finds to found. m is the join-value set flowing down from the parent,
// sorted and distinct; iter counts from 1 to Depth.
func (st *state) stratRec(relName string, attr int, m []string, iter int, budget *int) {
	if *budget <= 0 || st.interrupted() {
		return
	}
	rel := st.snap.Relation(relName)
	if rel == nil || rel.Len() == 0 {
		return
	}
	lv := &st.strat[iter]
	ir := selectIn(rel, attr, m, lv.ir[:0])
	lv.ir = ir
	if len(ir) == 0 {
		return
	}
	st.noteDepth(iter)
	if iter >= st.b.opts.Depth {
		st.sampleStrata(relName, attr, ir, budget)
		return
	}

	descended := false
	for bAttr, childTargets := range st.b.plan.rels[relName].plus {
		if len(childTargets) == 0 {
			continue
		}
		vals := projectDistinct(ir, bAttr, lv.vals[:0])
		lv.vals = vals
		for _, ra := range childTargets {
			if *budget <= 0 {
				return
			}
			from := len(st.found)
			st.stratRec(ra.Relation, ra.Attr, vals, iter+1, budget)
			if len(st.found) == from {
				continue
			}
			descended = true
			// Backtrack step: keep the parent tuples that join the
			// sampled child tuples (σ_{B ∈ π_{B'}(I_S)}(I_R)). Only
			// direct children count — the child's output also carries
			// deeper descendants.
			joined := lv.joined[:0]
			for _, ft := range st.found[from:] {
				if ft.rel == ra.Relation && ft.viaAttr == ra.Attr {
					joined = insertSorted(joined, ft.tuple[ft.viaAttr])
				}
			}
			lv.joined = joined
			for _, t := range ir {
				if _, ok := slices.BinarySearch(joined, t[bAttr]); ok {
					st.found = append(st.found, foundTuple{rel: relName, viaAttr: attr, tuple: t})
					*budget--
					if *budget <= 0 {
						return
					}
				}
			}
		}
	}
	if !descended {
		// Leaf in practice (no joinable children had matches): sample the
		// strata here so the branch still contributes.
		st.sampleStrata(relName, attr, ir, budget)
	}
}

// selectIn appends σ_{attr ∈ values}(rel) to buf, in the order
// db.Relation.SelectIn returns it for the same set, without building the
// set or copying postings: for a set no larger than the column's
// distinct values, value by value in sorted order, each value's matches
// read from its postings in order, one index probe per value; otherwise
// in relation order by scan. values must be sorted and distinct.
func selectIn(rel *db.Relation, attr int, values []string, buf []db.Tuple) []db.Tuple {
	if len(values) <= rel.DistinctCount(attr) {
		for _, v := range values {
			tuples, rows := rel.Postings(attr, v)
			for _, r := range rows {
				buf = append(buf, tuples[r])
			}
		}
		return buf
	}
	for _, t := range rel.Snapshot() {
		if _, ok := slices.BinarySearch(values, t[attr]); ok {
			buf = append(buf, t)
		}
	}
	return buf
}

// sampleStrata partitions ir into strata and uniformly samples
// SampleSize tuples from each, appending them to found: one stratum per
// distinct value of each constant-able attribute, in sorted value order
// and each holding its tuples in ir's order, or a single stratum holding
// everything when the relation has no constant-able attribute (§4.3.2).
func (st *state) sampleStrata(relName string, viaAttr int, ir []db.Tuple, budget *int) {
	constAttrs := st.b.plan.rels[relName].constAttrs
	if len(constAttrs) == 0 {
		st.emitStratum(relName, viaAttr, ir, budget)
		return
	}
	for _, ca := range constAttrs {
		// Lay the strata out in sorted value order, each holding its
		// tuples in ir's order: the distinct values of ca, each tuple's
		// stratum by binary search, then a stable counting sort.
		vals := st.strataVals[:0]
		for j, t := range ir {
			if j == 0 || t[ca] != ir[j-1][ca] {
				vals = append(vals, t[ca])
			}
		}
		slices.Sort(vals)
		vals = slices.Compact(vals)
		starts := append(st.strataStarts[:0], make([]int, len(vals)+1)...)
		which := st.strataOf[:0]
		k := 0
		for j, t := range ir {
			if j == 0 || t[ca] != ir[j-1][ca] {
				k, _ = slices.BinarySearch(vals, t[ca])
			}
			which = append(which, k)
			starts[k+1]++
		}
		for k := 1; k < len(starts); k++ {
			starts[k] += starts[k-1]
		}
		strata := slices.Grow(st.strata[:0], len(ir))[:len(ir)]
		for j, t := range ir {
			k := which[j]
			strata[starts[k]] = t
			starts[k]++
		}
		// Each stratum k now ends at starts[k] and begins where k-1 ends.
		st.strataVals, st.strataStarts, st.strataOf, st.strata = vals, starts, which, strata
		lo := 0
		for k := range vals {
			if *budget <= 0 || st.interrupted() {
				return
			}
			st.emitStratum(relName, viaAttr, strata[lo:starts[k]], budget)
			lo = starts[k]
		}
	}
}

// emitStratum appends a uniform sample of one stratum to found, stopping
// when the budget runs out.
func (st *state) emitStratum(relName string, viaAttr int, stratum []db.Tuple, budget *int) {
	for _, t := range st.sampleUniform(stratum) {
		st.found = append(st.found, foundTuple{rel: relName, viaAttr: viaAttr, tuple: t})
		*budget--
		if *budget <= 0 {
			return
		}
	}
}

// projectDistinct appends to vals, sorted, the distinct values of column
// attr across the tuples, taking the first maxJoinValues in tuple order.
func projectDistinct(tuples []db.Tuple, attr int, vals []string) []string {
	for _, t := range tuples {
		if vals = insertSorted(vals, t[attr]); len(vals) >= maxJoinValues {
			break
		}
	}
	return vals
}

// insertSorted adds v to the sorted, distinct set vals unless it is
// there.
func insertSorted(vals []string, v string) []string {
	if i, found := slices.BinarySearch(vals, v); !found {
		return slices.Insert(vals, i, v)
	}
	return vals
}
