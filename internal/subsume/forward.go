package subsume

import (
	"context"
	"slices"

	"repro/internal/logic"
)

// Forward is the outcome of ForwardPass.
type Forward struct {
	// HeadMatches is false when the clause's head cannot unify with the
	// ground head; every other field is then zero.
	HeadMatches bool
	// Covers is true when the whole clause subsumes the ground clause;
	// Kept is then nil.
	Covers bool
	// Kept holds, ascending, the indices of the body literals the pass
	// kept.
	Kept []int
	// Refuted counts the literals dropped without a search, and
	// WholeRefuted reports that the whole-clause test was: both are
	// functions of (clause, ground clause) alone.
	Refuted      int
	WholeRefuted bool
}

// ForwardPass computes the greedy left-to-right sub-body of c that
// subsumes the ground clause: it first tests c whole, and when that
// fails scans the body in order, keeping a literal iff the literals kept
// so far plus that literal still subsume. Each decision is the one
// CheckCompiledCtx takes on that prefix under the same options,
// including its sound-negative answer on an exhausted budget or a
// cancelled context.
//
// Two things make it cheaper than len(c.Body)+1 independent checks. The
// clause is compiled once and the bound prefix grows and shrinks by one
// literal per step. And a refuter runs ahead of every search: it keeps,
// for each variable of the kept prefix, the set of ground values that
// the rows supporting the prefix's literals allow — narrowed once per
// kept literal — and a literal with no ground row consistent with its
// constants, the head bindings and those sets is dropped without a
// search. The sets over-approximate the values a variable takes in any
// substitution the search could find for the prefix, so a refuted
// prefix is one every search answers "does not subsume": a refutation
// only ever replaces an answer that was already no, never a yes.
func ForwardPass(ctx context.Context, c *logic.Clause, cg *CompiledGround, opts Options) Forward {
	opts = opts.normalized()
	f := newForward(c, cg, opts)
	defer f.m.release()
	if !f.m.bindHead(&f.cc, cg) {
		return Forward{}
	}
	out := Forward{HeadMatches: true}
	if out.WholeRefuted = f.refutesWhole(); !out.WholeRefuted {
		res := f.m.check(ctx, &f.cc, cg, opts)
		record(opts, res)
		if res.Subsumes {
			out.Covers = true
			return out
		}
		f.m.bindHead(&f.cc, cg)
	}
	for i := range f.cc.lits {
		kept, refuted := f.extend(ctx, i)
		if kept {
			out.Kept = append(out.Kept, i)
		}
		if refuted {
			out.Refuted++
		}
	}
	return out
}

// forward is one pass's state: the compiled clause, the matcher holding
// the kept prefix, and the refuter's value sets for it.
type forward struct {
	cc   CompiledClause
	cg   *CompiledGround
	opts Options
	m    *matcher
	kept domains
	// next[p] collects, for the literal under test, the values its
	// supporting rows give the variable at term position p.
	next [][]int32
}

// domains maps each variable that occurs in a set of literals to the
// sorted ground values the rows supporting those literals allow it.
type domains struct {
	seen []bool
	vals [][]int32
}

func newDomains(nVars int) domains {
	return domains{seen: make([]bool, nVars), vals: make([][]int32, nVars)}
}

func newForward(c *logic.Clause, cg *CompiledGround, opts Options) *forward {
	f := &forward{cg: cg, opts: opts, m: matcherPool.Get().(*matcher)}
	// Compiled after cg, so a symbol still unresolved is in no row of it.
	f.cc.compile(cg.in, c)
	f.kept = newDomains(f.cc.nVars)
	return f
}

// extend decides body literal i against the kept prefix: refuted without
// a search, or kept iff the search finds the prefix plus the literal
// subsuming.
func (f *forward) extend(ctx context.Context, i int) (kept, refuted bool) {
	terms := f.cc.lits[i].terms
	ext := f.cc.extent(i, f.cg)
	if !f.supported(terms, ext, &f.kept) {
		return false, true
	}
	f.m.pushLit(terms, ext)
	f.m.sizeSearch()
	res := f.m.search(ctx, f.opts)
	record(f.opts, res)
	if !res.Subsumes {
		f.m.popLit()
		return false, false
	}
	f.narrow(terms, &f.kept)
	return true, false
}

// refutesWhole reports whether the whole clause is refuted: the body is
// swept once in order, every literal narrowing the sets as if kept, and
// a literal left without a supporting row means no substitution exists
// for the clause.
func (f *forward) refutesWhole() bool {
	d := newDomains(f.cc.nVars)
	for i := range f.cc.lits {
		terms := f.cc.lits[i].terms
		if !f.supported(terms, f.cc.extent(i, f.cg), &d) {
			return true
		}
		f.narrow(terms, &d)
	}
	return false
}

// supported reports whether some row of ext is consistent with the
// literal's constants, the head bindings and d, leaving in f.next the
// values those rows give each of the literal's free variables. It
// mirrors what the search accepts: a head variable bound to the reserved
// id 0 counts as free, and a literal whose arity differs from its
// extent's matches nothing.
func (f *forward) supported(terms []cTerm, ext *groundExtent, d *domains) bool {
	if ext == nil || ext.arity != len(terms) {
		return false
	}
	initial := f.m.initial
	for len(f.next) < len(terms) {
		f.next = append(f.next, nil)
	}
	// Scan the shortest posting list among the positions holding one
	// known value, or every row when there is none.
	var list []int32
	indexed := false
	for p, t := range terms {
		var want int32
		switch {
		case t.varID < 0:
			want = t.val
		case initial[t.varID] != 0:
			want = initial[t.varID]
		case d.seen[t.varID] && len(d.vals[t.varID]) == 1:
			want = d.vals[t.varID][0]
		default:
			continue
		}
		if l := ext.index[p][want]; !indexed || len(l) < len(list) {
			list, indexed = l, true
		}
	}
	for p := range terms {
		f.next[p] = f.next[p][:0]
	}
	any := false
	n := len(ext.rows)
	if indexed {
		n = len(list)
	}
	for k := 0; k < n; k++ {
		row := ext.rows[k]
		if indexed {
			row = ext.rows[list[k]]
		}
		if !consistent(terms, row, initial, d) {
			continue
		}
		any = true
		for p, t := range terms {
			if t.varID >= 0 && initial[t.varID] == 0 {
				f.next[p] = append(f.next[p], row[p])
			}
		}
	}
	return any
}

// consistent reports whether the ground row agrees with the literal's
// constants, the head bindings, its own repeated variables and d.
func consistent(terms []cTerm, row, initial []int32, d *domains) bool {
	if len(row) < len(terms) {
		return false
	}
	for p, t := range terms {
		v := row[p]
		if t.varID < 0 {
			if t.val != v {
				return false
			}
			continue
		}
		if init := initial[t.varID]; init != 0 {
			if init != v {
				return false
			}
			continue
		}
		for q := 0; q < p; q++ {
			if terms[q].varID == t.varID && row[q] != v {
				return false
			}
		}
		if d.seen[t.varID] {
			if _, ok := slices.BinarySearch(d.vals[t.varID], v); !ok {
				return false
			}
		}
	}
	return true
}

// narrow replaces the sets of the literal's free variables in d by the
// values supported just collected for them — subsets of the old sets,
// since a supporting row already lies within them.
func (f *forward) narrow(terms []cTerm, d *domains) {
	for p, t := range terms {
		if t.varID < 0 || f.m.initial[t.varID] != 0 {
			continue
		}
		first := true
		for q := 0; q < p; q++ {
			if terms[q].varID == t.varID {
				first = false
			}
		}
		if !first {
			continue
		}
		vals := f.next[p]
		slices.Sort(vals)
		vals = slices.Compact(vals)
		d.vals[t.varID] = append(d.vals[t.varID][:0], vals...)
		d.seen[t.varID] = true
	}
}
