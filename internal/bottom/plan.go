package bottom

import "repro/internal/bias"

// plan is the part of bottom-clause construction that depends on the
// compiled bias alone, derived once in NewBuilder and shared read-only by
// every clone, as the bias itself is. The builder never asks the bias
// for modes or types per tuple or per traversal step: it reads them here.
type plan struct {
	// target[i] is the type list of the target's attribute i, and
	// targetPlus[i] the attributes its constants are looked up in
	// (bias.Compiled.PlusTargets of that list).
	target     [][]string
	targetPlus [][]bias.RelAttr
	// rels holds one entry per relation with a mode definition.
	rels map[string]*relPlan
}

// relPlan is one relation's share of the plan. Its per-attribute slices
// are indexed by the discovery attribute: the + position through which
// a tuple of the relation was reached.
type relPlan struct {
	// types[i] is the type list of attribute i, and plus[i] the
	// attributes a value of attribute i semi-joins into: the random and
	// stratified traversals' child edges.
	types [][]string
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

// compilePlan derives the construction plan of a compiled bias. It is
// the one place the builder reads the bias's modes and type lists.
func compilePlan(c *bias.Compiled) *plan {
	p := &plan{rels: make(map[string]*relPlan)}
	for i := 0; ; i++ {
		types := c.TypesOf(c.Target(), i)
		if types == nil {
			break
		}
		p.target = append(p.target, types)
		p.targetPlus = append(p.targetPlus, c.PlusTargets(types))
	}
	for _, rel := range c.Relations() {
		modes := c.ModesFor(rel)
		arity := len(modes[0].Symbols)
		rp := &relPlan{
			types:      make([][]string, arity),
			plus:       make([][]bias.RelAttr, arity),
			modes:      make([][]bias.ModeDef, arity),
			firstNotes: make([][]int, arity),
			laterNotes: make([][]int, arity),
		}
		for i := 0; i < arity; i++ {
			rp.types[i] = c.TypesOf(rel, i)
			rp.plus[i] = c.PlusTargets(rp.types[i])
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

// targetTypes returns the type list of the target's attribute i (nil
// past the target's arity).
func (p *plan) targetTypes(i int) []string {
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
