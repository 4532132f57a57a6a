package bottom

import (
	"slices"

	"repro/internal/db"
	"repro/internal/logic"
)

// randomTuples implements §4.2: random sampling over the semi-join tree
// rooted at the example. The tree's root relation holds the example as
// its only tuple (sampled with probability 1); every edge is a semi-join
// permitted by the language bias; each edge is sampled with the
// extended-Olken acceptance scheme, and each node's sample feeds the
// semi-joins below it.
func (b *Builder) randomTuples(example logic.Literal) []foundTuple {
	var out []foundTuple
	budget := b.opts.MaxLiterals
	for i, term := range example.Terms {
		b.expandRandom([]string{term.Name}, b.plan.targetTypes(i), b.opts.Depth, &out, &budget)
		if budget <= 0 {
			break
		}
	}
	return out
}

// expandRandom samples one tree level: every (relation, attribute) the
// frontier values can semi-join into, then recurses on the sampled
// tuples' attributes.
func (b *Builder) expandRandom(values, types []string, depth int, out *[]foundTuple, budget *int) {
	if depth <= 0 || len(values) == 0 || *budget <= 0 || b.interrupted() {
		return
	}
	for _, ra := range b.bias.PlusTargets(types) {
		if *budget <= 0 || b.interrupted() {
			return
		}
		rel := b.snap.Relation(ra.Relation)
		if rel == nil || rel.Len() == 0 {
			continue
		}
		sample := b.olkenSample(rel, ra.Attr, values)
		if len(sample) == 0 {
			continue
		}
		b.noteDepth(b.opts.Depth - depth + 1)
		for _, t := range sample {
			*out = append(*out, foundTuple{rel: ra.Relation, viaAttr: ra.Attr, tuple: t})
			*budget--
			if *budget <= 0 {
				return
			}
		}
		// Recurse: the distinct values of each attribute of the sampled
		// tuples seed the next level of semi-joins.
		for j, childTypes := range b.plan.rels[ra.Relation].types {
			if len(childTypes) == 0 {
				continue
			}
			seen := make(map[string]bool, len(sample))
			var childValues []string
			for _, t := range sample {
				if !seen[t[j]] {
					seen[t[j]] = true
					childValues = append(childValues, t[j])
				}
			}
			b.expandRandom(childValues, childTypes, depth-1, out, budget)
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
func (b *Builder) olkenSample(rel *db.Relation, attr int, values []string) []db.Tuple {
	maxFreq := rel.MaxFrequency(attr)
	if maxFreq == 0 {
		return nil
	}
	s := b.opts.SampleSize
	maxAttempts := 20 * s
	var out []db.Tuple
	// Dedupe picks by (value, offset) so a sample never wastes a literal
	// slot on an identical tuple. There are at most s picks, so a linear
	// scan beats a map.
	type pick struct {
		value string
		idx   int
	}
	var picked []pick
	for attempts := 0; attempts < maxAttempts && len(out) < s; attempts++ {
		a := values[b.rng.Intn(len(values))]
		m := rel.Frequency(attr, a)
		if m == 0 {
			continue
		}
		i := b.rng.Intn(m)
		// Accept with p = m/M so tuples of the semi-join come out uniform
		// regardless of how skewed the value frequencies are.
		if b.rng.Float64() >= float64(m)/float64(maxFreq) {
			continue
		}
		key := pick{value: a, idx: i}
		if slices.Contains(picked, key) {
			continue
		}
		picked = append(picked, key)
		out = append(out, rel.LookupAt(attr, a, i))
	}
	return out
}
