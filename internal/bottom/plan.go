package bottom

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/bias"
)

// plan is the part of bottom-clause construction that depends on the
// compiled bias alone, derived once in NewBuilder and read-only, as the
// bias itself is, so concurrent builds share it. The builder never asks the bias
// for modes or types per tuple or per traversal step: it reads them here.
type plan struct {
	// ids numbers the types the bias mentions, and words is the length
	// of every typeSet of the plan: one bit per type, 64 to a word.
	ids   map[string]int
	words int
	// target[i] is the type set of the target's attribute i, and
	// targetPlus[i] the attributes its constants are looked up in
	// (bias.Compiled.PlusTargets of its type list).
	target     []typeSet
	targetPlus [][]bias.RelAttr
	// lookups lists every attribute some mode looks constants up in,
	// ordered by relation then attribute, each with the types whose
	// constants reach it: the lookup targets of a type set are the
	// entries whose types meet it, in this order.
	lookups []lookup
	// rels holds one entry per relation with a mode definition.
	rels map[string]*relPlan
	// states recycles the working memory of finished builds, sampler
	// scratch and generator included, across every build of the builder.
	states sync.Pool
}

// lookup is one attribute constants are looked up in, and the types
// whose constants are.
type lookup struct {
	ra    bias.RelAttr
	types typeSet
}

// relPlan is one relation's share of the plan. Its per-attribute slices
// are indexed by the discovery attribute: the + position through which
// a tuple of the relation was reached.
type relPlan struct {
	// types[i] is the type set of attribute i, and plus[i] the
	// attributes a value of attribute i semi-joins into: the random and
	// stratified traversals' child edges.
	types []typeSet
	plus  [][]bias.RelAttr
	// constAttrs lists the attributes some mode allows to be a constant,
	// ascending: the stratum attributes of §4.3.2.
	constAttrs []int
	// modes[via] lists the modes with + at via, in bias order. Only
	// variabilized builds read it: their literals differ by mode.
	modes [][]bias.ModeDef
	// firstNotes[via] and laterNotes[via] are the positions a ground
	// build notes for a tuple reached via that attribute. A ground
	// literal has the same terms under every mode with + at via, so it
	// is emitted once, after the first such mode's variable positions
	// (firstNotes, in order); laterNotes holds the variable positions the
	// later modes add, in mode and position order, repeats dropped —
	// noting a position twice is a no-op. An empty firstNotes means no
	// mode applies.
	firstNotes, laterNotes [][]int
}

// typeSet is a set of the plan's type ids, plan.words words long.
type typeSet []uint64

// meets reports whether the sets share a type.
func (s typeSet) meets(o typeSet) bool {
	for i, w := range s {
		if w&o[i] != 0 {
			return true
		}
	}
	return false
}

// compilePlan derives the construction plan of a compiled bias. It is
// the one place the builder reads the bias's modes, type lists and
// lookup targets.
func compilePlan(c *bias.Compiled) *plan {
	p := &plan{ids: make(map[string]int), rels: make(map[string]*relPlan)}
	var targetTypes [][]string
	for i := 0; ; i++ {
		types := c.TypesOf(c.Target(), i)
		if types == nil {
			break
		}
		targetTypes = append(targetTypes, types)
	}
	relTypes := make(map[string][][]string)
	for _, rel := range c.Relations() {
		arity := len(c.ModesFor(rel)[0].Symbols)
		relTypes[rel] = make([][]string, arity)
		for i := range arity {
			relTypes[rel][i] = c.TypesOf(rel, i)
		}
	}

	// Number the types, and give every attribute a type's constants are
	// looked up in the set of such types.
	number := func(lists [][]string) {
		for _, types := range lists {
			for _, t := range types {
				if _, ok := p.ids[t]; !ok {
					p.ids[t] = len(p.ids)
				}
			}
		}
	}
	number(targetTypes)
	for _, rel := range c.Relations() {
		number(relTypes[rel])
	}
	p.words = max(1, (len(p.ids)+63)/64)
	at := make(map[bias.RelAttr]int)
	for t, id := range p.ids {
		for _, ra := range c.PlusTargets([]string{t}) {
			k, ok := at[ra]
			if !ok {
				k = len(p.lookups)
				at[ra] = k
				p.lookups = append(p.lookups, lookup{ra: ra, types: make(typeSet, p.words)})
			}
			p.lookups[k].types[id/64] |= 1 << (id % 64)
		}
	}
	slices.SortFunc(p.lookups, func(a, b lookup) int {
		return cmp.Or(cmp.Compare(a.ra.Relation, b.ra.Relation), cmp.Compare(a.ra.Attr, b.ra.Attr))
	})

	for _, types := range targetTypes {
		s := p.set(types)
		p.target = append(p.target, s)
		p.targetPlus = append(p.targetPlus, p.lookupTargets(nil, s))
	}
	for _, rel := range c.Relations() {
		modes := c.ModesFor(rel)
		arity := len(modes[0].Symbols)
		rp := &relPlan{
			types:      make([]typeSet, arity),
			plus:       make([][]bias.RelAttr, arity),
			modes:      make([][]bias.ModeDef, arity),
			firstNotes: make([][]int, arity),
			laterNotes: make([][]int, arity),
		}
		for i := 0; i < arity; i++ {
			rp.types[i] = p.set(relTypes[rel][i])
			rp.plus[i] = p.lookupTargets(nil, rp.types[i])
			if c.CanBeConstant(rel, i) {
				rp.constAttrs = append(rp.constAttrs, i)
			}
		}
		for via := 0; via < arity; via++ {
			noted := make([]bool, arity)
			for _, m := range modes {
				if m.Symbols[via] != bias.Input {
					continue
				}
				rp.modes[via] = append(rp.modes[via], m)
				for i, s := range m.Symbols {
					if s == bias.Constant || noted[i] {
						continue
					}
					noted[i] = true
					if len(rp.modes[via]) == 1 {
						rp.firstNotes[via] = append(rp.firstNotes[via], i)
					} else {
						rp.laterNotes[via] = append(rp.laterNotes[via], i)
					}
				}
			}
		}
		p.rels[rel] = rp
	}
	return p
}

// set returns the set of the given types, which the plan must number.
func (p *plan) set(types []string) typeSet {
	s := make(typeSet, p.words)
	for _, t := range types {
		s[p.ids[t]/64] |= 1 << (p.ids[t] % 64)
	}
	return s
}

// lookupTargets appends to dst the attributes constants of the given
// types are looked up in, in lookups order: bias.Compiled.PlusTargets of
// the set's types.
func (p *plan) lookupTargets(dst []bias.RelAttr, s typeSet) []bias.RelAttr {
	for _, lk := range p.lookups {
		if lk.types.meets(s) {
			dst = append(dst, lk.ra)
		}
	}
	return dst
}

// targetTypes returns the type set of the target's attribute i (nil past
// the target's arity).
func (p *plan) targetTypes(i int) typeSet {
	if i >= len(p.target) {
		return nil
	}
	return p.target[i]
}

// targetPlusTargets returns the attributes the target's attribute i
// semi-joins into (nil past the target's arity).
func (p *plan) targetPlusTargets(i int) []bias.RelAttr {
	if i >= len(p.targetPlus) {
		return nil
	}
	return p.targetPlus[i]
}
