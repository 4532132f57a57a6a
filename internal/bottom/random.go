package bottom

import (
	"slices"

	"repro/internal/bias"
	"repro/internal/db"
	"repro/internal/logic"
)

// randLevel is one semi-join tree level's scratch in a random build,
// reused by every draw set at that level: the level's Olken sample,
// which the level reads again after the recursions below it return,
// and the value set its children descend with.
type randLevel struct {
	sample []db.Tuple
	vals   []string
}

// randomTuples implements §4.2: random sampling over the semi-join tree
// rooted at the example. The tree's root relation holds the example as
// its only tuple (sampled with probability 1); every edge is a semi-join
// permitted by the language bias; each edge is sampled with the
// extended-Olken acceptance scheme, and each node's sample feeds the
// semi-joins below it. The tuples are appended to found.
func (st *state) randomTuples(example logic.Literal) {
	if len(st.rnd) <= st.b.opts.Depth {
		st.rnd = make([]randLevel, st.b.opts.Depth+1) // level 0 holds the root value
	}
	budget := st.b.opts.MaxLiterals
	for i, term := range example.Terms {
		root := append(st.rnd[0].vals[:0], term.Name)
		st.rnd[0].vals = root
		st.expandRandom(root, st.b.plan.targetPlusTargets(i), 1, &budget)
		if budget <= 0 {
			break
		}
	}
}

// expandRandom samples tree level iter (1 to Depth): every (relation,
// attribute) in targets, the edges the frontier values can semi-join
// into, then recurses on the sampled tuples' attributes. The values are
// distinct.
func (st *state) expandRandom(values []string, targets []bias.RelAttr, iter int, budget *int) {
	if iter > st.b.opts.Depth || len(values) == 0 || *budget <= 0 || st.interrupted() {
		return
	}
	lv := &st.rnd[iter]
	for _, ra := range targets {
		if *budget <= 0 || st.interrupted() {
			return
		}
		rel := st.snap.Relation(ra.Relation)
		if rel == nil || rel.Len() == 0 {
			continue
		}
		sample := st.olkenSample(rel, ra.Attr, values, lv.sample)
		lv.sample = sample
		if len(sample) == 0 {
			continue
		}
		st.noteDepth(iter)
		for _, t := range sample {
			st.found = append(st.found, foundTuple{rel: ra.Relation, viaAttr: ra.Attr, tuple: t})
			*budget--
			if *budget <= 0 {
				return
			}
		}
		if iter == st.b.opts.Depth {
			continue // the tree's last level: no semi-join below it
		}
		// Recurse: the distinct values of each attribute of the sampled
		// tuples, in first-seen order, seed the next level of semi-joins.
		// A sample holds at most s tuples, so a linear scan beats a map.
		for j, childTargets := range st.b.plan.rels[ra.Relation].plus {
			if len(childTargets) == 0 {
				continue
			}
			vals := lv.vals[:0]
			for _, t := range sample {
				if !slices.Contains(vals, t[j]) {
					vals = append(vals, t[j])
				}
			}
			lv.vals = vals
			st.expandRandom(vals, childTargets, iter+1, budget)
			if *budget <= 0 {
				return
			}
		}
	}
}

// olkenSample draws a random sample of the semi-join {values} ⋉ rel.attr
// without materializing it (§4.2.3): pick a uniform random value a from
// the left side's distinct values, pick a uniform random matching tuple,
// and accept it with probability m(a)/M where m(a) is a's frequency in
// rel.attr and M the relation's maximum frequency on that attribute.
// Oversampling (bounded attempts) compensates for rejections and
// non-matching values.
//
// Each value's postings, and so m(a), are read from the index once,
// before the first attempt: the attempts draw values with replacement,
// up to 20·s of them from at most s values. Where m(a) is read from does
// not touch the source — each attempt draws Intn(len(values)), then
// Intn(m) and Float64() only when m > 0 — so the stream and the sample
// equal those of a sampler that probes the index per attempt
// (olken_oracle_test.go).
//
// A sample is complete once it holds min(s, Σm(a)) picks: no later
// attempt can add one. Attempts stop at s picks, as they always have;
// below s, the attempts left after completion only advance the source by
// the draws they would have made, so the rest of the build draws what it
// always did. The drain is one loop over the source (drainOlken).
//
// The sample is appended to buf[:0].
func (st *state) olkenSample(rel *db.Relation, attr int, values []string, buf []db.Tuple) []db.Tuple {
	out := buf[:0]
	maxFreq := rel.MaxFrequency(attr)
	if maxFreq == 0 {
		return out
	}
	var tuples []db.Tuple // rel is pinned: every value's postings index it
	postings, bound := st.olkenRows[:0], st.olkenMax[:0]
	matches := 0 // |{values} ⋉ rel.attr|: no sample holds more tuples
	for _, a := range values {
		var rows []int
		tuples, rows = rel.Postings(attr, a)
		m := len(rows)
		// Intn(m)'s rejection bound; m = 0 draws no Intn(m), and its 0
		// tells drainOlken so.
		var mMax int32
		if m > 0 {
			mMax = int31nMax(int32(m))
		}
		postings, bound = append(postings, rows), append(bound, mMax)
		matches += m
	}
	st.olkenRows, st.olkenMax = postings, bound
	s := st.b.opts.SampleSize
	maxAttempts := 20 * s
	complete := min(s, matches)
	nv := int32(len(values))
	nvMax := int31nMax(nv)
	// Dedupe picks by (value index, offset) so a sample never wastes a
	// literal slot on an identical tuple; the values are distinct, so the
	// index names the value. There are at most s picks, so a linear scan
	// beats a map.
	picked := st.olkenPicks[:0]
	attempts := 0
	for ; attempts < maxAttempts && len(out) < complete; attempts++ {
		k := drawInt31n(st.src, nv, nvMax)
		m := len(postings[k])
		if m == 0 {
			continue
		}
		i := int(drawInt31n(st.src, int32(m), bound[k]))
		// Accept with p = m/M so tuples of the semi-join come out uniform
		// regardless of how skewed the value frequencies are.
		if drawFloat64(st.src) >= float64(m)/float64(maxFreq) {
			continue
		}
		key := olkenPick{value: int(k), idx: i}
		if slices.Contains(picked, key) {
			continue
		}
		picked = append(picked, key)
		out = append(out, tuples[postings[k][i]])
	}
	st.olkenPicks = picked
	if len(out) < s {
		// The sample is complete below s, or the attempts ran out.
		st.src.drainOlken(maxAttempts-attempts, bound)
	}
	return out
}

// olkenPick names one accepted Olken draw: the index of its value in the
// frontier and its offset among that value's matches.
type olkenPick struct{ value, idx int }
