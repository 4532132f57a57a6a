// Package query implements the paper's baseline coverage method (§5,
// "Coverage Testing As Query Execution"): a candidate clause is treated
// as a Select-Project-Join query and evaluated directly over the
// database. Given a clause C and a ground example e, the engine asks
// whether there is an assignment of C's variables to database constants
// such that the head equals e and every body literal is a tuple of its
// relation — exact Datalog semantics, no bottom-clause sampling and no
// θ-subsumption approximation.
//
// The paper discards this method for training because clauses with
// hundreds of literals make the join prohibitively expensive, and §5's
// sampled ground bottom clauses replace it. It remains the ground truth:
// this package is used to score final definitions exactly and to ablate
// subsumption-based coverage against true coverage
// (BenchmarkAblationCoverageMethod).
package query

import (
	"fmt"
	"math/rand"

	"repro/internal/db"
	"repro/internal/logic"
)

// Options bounds evaluation.
type Options struct {
	// MaxNodes is the join-search budget per coverage test; <=0 selects
	// a default of 1000000. An exhausted budget reports ErrBudget.
	MaxNodes int
}

func (o Options) normalized() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 1000000
	}
	return o
}

// ErrBudget is returned when a coverage test exhausts its node budget
// without an exact answer.
var ErrBudget = fmt.Errorf("query: join-search budget exhausted")

// Engine evaluates clauses over one database. It is safe for concurrent
// use after the database is fully loaded and indexed.
type Engine struct {
	db   *db.Database
	opts Options
}

// New creates an engine over the database.
func New(d *db.Database, opts Options) *Engine {
	return &Engine{db: d, opts: opts.normalized()}
}

// Covers reports whether clause c covers the ground example: whether
// some substitution grounds c's head to the example and its body to
// database tuples.
func (e *Engine) Covers(c *logic.Clause, example logic.Literal) (bool, error) {
	ev, err := e.compile(c, example)
	if err != nil {
		return false, err
	}
	if ev == nil {
		return false, nil
	}
	return ev.search()
}

// DefinitionCovers reports whether any clause of the definition covers
// the example.
func (e *Engine) DefinitionCovers(d *logic.Definition, example logic.Literal) (bool, error) {
	for _, c := range d.Clauses {
		ok, err := e.Covers(c, example)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// Count returns how many of the examples the clause covers.
func (e *Engine) Count(c *logic.Clause, examples []logic.Literal) (int, error) {
	n := 0
	for _, ex := range examples {
		ok, err := e.Covers(c, ex)
		if err != nil {
			return 0, err
		}
		if ok {
			n++
		}
	}
	return n, nil
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
func (e *Engine) compile(c *logic.Clause, example logic.Literal) (*evaluator, error) {
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

// Bindings enumerates up to limit distinct head bindings (as examples)
// that the clause derives over the database — the query-execution view
// of a clause as an SPJ query with projection onto the head. It is used
// by tools to materialize what a learned rule predicts. A limit <= 0
// means 1000. The rng, when non-nil, randomizes exploration order so
// samples of large result sets are not biased to relation order.
func (e *Engine) Bindings(c *logic.Clause, limit int, rng *rand.Rand) ([]logic.Literal, error) {
	if limit <= 0 {
		limit = 1000
	}
	// Enumerate by scanning candidate constants for the first head
	// variable from its most selective body occurrence; simpler and
	// exact: run Covers over the distinct values of an anchor attribute.
	var out []logic.Literal
	anchor, attr := e.anchorRelation(c)
	if anchor == nil {
		return nil, fmt.Errorf("query: no body literal shares the head's first variable")
	}
	values := anchor.DistinctValues(attr)
	if rng != nil {
		rng.Shuffle(len(values), func(i, j int) { values[i], values[j] = values[j], values[i] })
	}
	if len(c.Head.Terms) != 1 {
		return nil, fmt.Errorf("query: Bindings supports unary heads; got arity %d", len(c.Head.Terms))
	}
	for _, v := range values {
		ex := logic.Literal{Predicate: c.Head.Predicate, Terms: []logic.Term{logic.Const(v)}}
		ok, err := e.Covers(c, ex)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, ex)
			if len(out) >= limit {
				break
			}
		}
	}
	return out, nil
}

// anchorRelation finds a body literal whose term equals the head's first
// variable, returning its relation and attribute position.
func (e *Engine) anchorRelation(c *logic.Clause) (*db.Relation, int) {
	if len(c.Head.Terms) == 0 || !c.Head.Terms[0].IsVar() {
		return nil, 0
	}
	headVar := c.Head.Terms[0].Name
	for _, l := range c.Body {
		for p, t := range l.Terms {
			if t.IsVar() && t.Name == headVar {
				if rel := e.db.Relation(l.Predicate); rel != nil && rel.Len() > 0 {
					return rel, p
				}
			}
		}
	}
	return nil, 0
}
