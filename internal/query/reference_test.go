package query

// The reference evaluator: the join search the engine ran before exact
// coverage became θ-subsumption against the compiled database, kept
// as it was so the differential test can hold the engine to it.

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/logic"
)

// reference evaluates clauses with the old join search.
type reference struct {
	db   *db.Database
	opts Options
}

// Covers reports whether the join search finds a substitution grounding
// c's head to the example and its body to database tuples.
func (e *reference) Covers(c *logic.Clause, example logic.Literal) (bool, error) {
	ev, err := e.compile(c, example)
	if err != nil {
		return false, err
	}
	if ev == nil {
		return false, nil
	}
	return ev.search()
}

// evalLit is a compiled body literal bound to its relation.
type evalLit struct {
	rel   *db.Relation
	terms []cTerm
}

type cTerm struct {
	varID int    // -1 for constants
	val   string // constant value when varID < 0
}

// evaluator is one compiled (clause, example) join search. It mirrors
// the θ-subsumption matcher's structure — fail-first selection with
// incremental constrained degrees — but candidates come from the
// database relations rather than a ground bottom clause.
type evaluator struct {
	lits    []evalLit
	varOccs [][]int // variable id -> literal indexes (duplicates folded)

	vals      []string
	bound     []bool
	matched   []bool
	deg       []int
	remaining int
	nodes     int
	maxNodes  int
}

// compile binds the head to the example and compiles the body. A nil
// evaluator (no error) means the head cannot match or a body relation is
// missing/empty, i.e. the clause trivially does not cover.
func (e *reference) compile(c *logic.Clause, example logic.Literal) (*evaluator, error) {
	if !example.IsGround() {
		return nil, fmt.Errorf("query: example %v must be ground", example)
	}
	if c.Head.Predicate != example.Predicate || len(c.Head.Terms) != len(example.Terms) {
		return nil, nil
	}
	varID := make(map[string]int)
	idOf := func(name string) int {
		if id, ok := varID[name]; ok {
			return id
		}
		id := len(varID)
		varID[name] = id
		return id
	}
	headVal := make(map[int]string)
	for i, t := range c.Head.Terms {
		gv := example.Terms[i].Name
		if t.IsConst() {
			if t.Name != gv {
				return nil, nil
			}
			continue
		}
		id := idOf(t.Name)
		if prev, ok := headVal[id]; ok && prev != gv {
			return nil, nil
		}
		headVal[id] = gv
	}

	// One pinned snapshot per evaluation: every body literal reads the
	// same committed state.
	snap := e.db.Snapshot()
	ev := &evaluator{lits: make([]evalLit, len(c.Body)), maxNodes: e.opts.MaxNodes}
	for i, l := range c.Body {
		rel := snap.Relation(l.Predicate)
		if rel == nil || rel.Len() == 0 {
			return nil, nil
		}
		if rel.Schema.Arity() != len(l.Terms) {
			return nil, fmt.Errorf("query: literal %v has arity %d, relation has %d",
				l, len(l.Terms), rel.Schema.Arity())
		}
		el := evalLit{rel: rel, terms: make([]cTerm, len(l.Terms))}
		for p, t := range l.Terms {
			if t.IsConst() {
				el.terms[p] = cTerm{varID: -1, val: t.Name}
			} else {
				el.terms[p] = cTerm{varID: idOf(t.Name)}
			}
		}
		ev.lits[i] = el
	}

	nVars := len(varID)
	ev.vals = make([]string, nVars)
	ev.bound = make([]bool, nVars)
	ev.varOccs = make([][]int, nVars)
	for li, el := range ev.lits {
		seen := -1
		for _, t := range el.terms {
			if t.varID >= 0 && t.varID != seen {
				ev.varOccs[t.varID] = append(ev.varOccs[t.varID], li)
				seen = t.varID
			}
		}
	}
	ev.matched = make([]bool, len(ev.lits))
	ev.deg = make([]int, len(ev.lits))
	for li, el := range ev.lits {
		for _, t := range el.terms {
			if t.varID < 0 {
				ev.deg[li]++
			}
		}
	}
	for id, v := range headVal {
		ev.vals[id] = v
		ev.bound[id] = true
		for _, li := range ev.varOccs[id] {
			ev.deg[li]++
		}
	}
	ev.remaining = len(ev.lits)
	return ev, nil
}

// search runs the join search; it returns ErrBudget when inconclusive.
func (ev *evaluator) search() (bool, error) {
	if ev.remaining == 0 {
		return true, nil
	}
	found, exhausted := ev.solve()
	if exhausted && !found {
		return false, ErrBudget
	}
	return found, nil
}

// pick selects the unmatched literal with the highest constrained
// degree, tie-breaking by estimated candidate count.
func (ev *evaluator) pick() int {
	best, bestDeg := -1, -1
	for i := range ev.lits {
		if ev.matched[i] {
			continue
		}
		if ev.deg[i] > bestDeg {
			best, bestDeg = i, ev.deg[i]
		}
	}
	if bestDeg <= 0 || best < 0 {
		return best
	}
	bestEst := ev.estimate(best)
	if bestEst <= 1 {
		return best
	}
	checked := 0
	for i := range ev.lits {
		if ev.matched[i] || i == best || ev.deg[i] != bestDeg {
			continue
		}
		if est := ev.estimate(i); est < bestEst {
			best, bestEst = i, est
			if est <= 1 {
				break
			}
		}
		checked++
		if checked >= 3 {
			break
		}
	}
	return best
}

// estimate returns the smallest index-list size usable for literal li.
func (ev *evaluator) estimate(li int) int {
	el := &ev.lits[li]
	best := el.rel.Len()
	for p, t := range el.terms {
		var want string
		if t.varID < 0 {
			want = t.val
		} else if ev.bound[t.varID] {
			want = ev.vals[t.varID]
		} else {
			continue
		}
		if n := el.rel.Frequency(p, want); n < best {
			best = n
			if best == 0 {
				return 0
			}
		}
	}
	return best
}

// candidates returns the tuples of li's relation compatible with the
// current bindings, via the most selective bound attribute.
func (ev *evaluator) candidates(li int) []db.Tuple {
	el := &ev.lits[li]
	bestAttr, bestVal, bestN := -1, "", el.rel.Len()+1
	for p, t := range el.terms {
		var want string
		if t.varID < 0 {
			want = t.val
		} else if ev.bound[t.varID] {
			want = ev.vals[t.varID]
		} else {
			continue
		}
		if n := el.rel.Frequency(p, want); n < bestN {
			bestAttr, bestVal, bestN = p, want, n
			if n == 0 {
				return nil
			}
		}
	}
	check := func(t db.Tuple) bool {
		for p, ct := range el.terms {
			if ct.varID < 0 {
				if ct.val != t[p] {
					return false
				}
				continue
			}
			if ev.bound[ct.varID] && ev.vals[ct.varID] != t[p] {
				return false
			}
		}
		return true
	}
	var out []db.Tuple
	if bestAttr >= 0 {
		for _, t := range el.rel.Lookup(bestAttr, bestVal) {
			if check(t) {
				out = append(out, t)
			}
		}
		return out
	}
	for _, t := range el.rel.Snapshot() {
		if check(t) {
			out = append(out, t)
		}
	}
	return out
}

func (ev *evaluator) bindVar(v int, val string) {
	ev.vals[v] = val
	ev.bound[v] = true
	for _, li := range ev.varOccs[v] {
		ev.deg[li]++
	}
}

func (ev *evaluator) unbindVar(v int) {
	ev.bound[v] = false
	for _, li := range ev.varOccs[v] {
		ev.deg[li]--
	}
}

func (ev *evaluator) solve() (bool, bool) {
	if ev.remaining == 0 {
		return true, false
	}
	if ev.nodes >= ev.maxNodes {
		return false, true
	}
	li := ev.pick()
	cands := ev.candidates(li)
	if len(cands) == 0 {
		return false, false
	}
	el := &ev.lits[li]
	ev.matched[li] = true
	ev.remaining--
	defer func() {
		ev.matched[li] = false
		ev.remaining++
	}()

	var boundBuf [8]int
	exhausted := false
	for _, t := range cands {
		ev.nodes++
		if ev.nodes >= ev.maxNodes {
			return false, true
		}
		bound := boundBuf[:0]
		ok := true
		for p, ct := range el.terms {
			if ct.varID < 0 {
				continue
			}
			if ev.bound[ct.varID] {
				if ev.vals[ct.varID] != t[p] {
					ok = false
					break
				}
				continue
			}
			ev.bindVar(ct.varID, t[p])
			bound = append(bound, ct.varID)
		}
		if ok {
			matched, ex := ev.solve()
			if matched {
				return true, false
			}
			if ex {
				exhausted = true
			}
		}
		for _, v := range bound {
			ev.unbindVar(v)
		}
		if exhausted {
			return false, true
		}
	}
	return false, exhausted
}
