// Package query implements the paper's baseline coverage method (§5):
// C covers ground example e when some assignment of C's variables makes
// the head e and every body literal a database tuple — exact Datalog
// semantics, no sampling. That is θ-subsumption against the database,
// so New compiles one pinned snapshot once as the body of one ground
// clause for subsume's matcher, and a test binds the example as its
// head. autobias.EvaluateExact scores with it, θ-reducing clauses first.
package query

import (
	"fmt"
	"math/rand"

	"repro/internal/db"
	"repro/internal/logic"
	"repro/internal/subsume"
)

// Options bounds evaluation.
type Options struct {
	// MaxNodes budgets each test's search (<=0: 1000000); see ErrBudget.
	MaxNodes int
}

// ErrBudget reports a coverage test that exhausted its budget undecided.
var ErrBudget = fmt.Errorf("query: join-search budget exhausted")

// Engine evaluates clauses at the one snapshot New pinned, whatever
// commits follow. It is safe for concurrent use.
type Engine struct {
	snap *db.Snapshot
	cg   *subsume.CompiledGround
	opts subsume.Options
}

// New pins the database's current snapshot and compiles it.
func New(d *db.Database, opts Options) *Engine {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 1000000
	}
	e := &Engine{snap: d.Snapshot(), opts: subsume.Options{MaxNodes: opts.MaxNodes}}
	names, n, k := d.Schema().Names(), 0, 0
	for _, name := range names {
		r := e.snap.Relation(name)
		n, k = n+r.Len(), k+r.Len()*r.Schema.Arity()
	}
	// One literal per tuple, every term cut from one slab.
	body, terms := make([]logic.Literal, 0, n), make([]logic.Term, 0, k)
	for _, name := range names {
		for _, t := range e.snap.Relation(name).Snapshot() {
			at := len(terms)
			for _, v := range t {
				terms = append(terms, logic.Const(v))
			}
			body = append(body, logic.Literal{Predicate: name, Terms: terms[at:len(terms):len(terms)]})
		}
	}
	e.cg = subsume.CompileGround(nil, &logic.Clause{Body: body})
	return e
}

// Covers reports whether some substitution grounds c's head to the
// example and its body to database tuples.
func (e *Engine) Covers(c *logic.Clause, example logic.Literal) (bool, error) {
	if !example.IsGround() {
		return false, fmt.Errorf("query: example %v must be ground", example)
	}
	for _, l := range c.Body {
		rel := e.snap.Relation(l.Predicate)
		if rel == nil || rel.Len() == 0 {
			return false, nil
		}
		if rel.Schema.Arity() != len(l.Terms) {
			return false, fmt.Errorf("query: literal %v has arity %d, relation has %d",
				l, len(l.Terms), rel.Schema.Arity())
		}
	}
	res := subsume.CheckCompiled(c, e.cg.WithHead(example), e.opts)
	if !res.Complete {
		return false, ErrBudget
	}
	return res.Subsumes, nil
}

// DefinitionCovers reports whether any clause of the definition covers
// the example.
func (e *Engine) DefinitionCovers(d *logic.Definition, example logic.Literal) (bool, error) {
	for _, c := range d.Clauses {
		ok, err := e.Covers(c, example)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// Bindings enumerates up to limit distinct head bindings (as examples)
// that the clause derives — what a rule predicts, the clause read as an
// SPJ query projected onto the head. A limit <= 0 means 1000. A non-nil
// rng shuffles the order values are tried in, so samples of large
// result sets are not biased to relation order.
func (e *Engine) Bindings(c *logic.Clause, limit int, rng *rand.Rand) ([]logic.Literal, error) {
	if limit <= 0 {
		limit = 1000
	}
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
	var out []logic.Literal
	for _, v := range values {
		ex := logic.Literal{Predicate: c.Head.Predicate, Terms: []logic.Term{logic.Const(v)}}
		ok, err := e.Covers(c, ex)
		if err != nil {
			return nil, err
		}
		if ok {
			if out = append(out, ex); len(out) >= limit {
				break
			}
		}
	}
	return out, nil
}

// anchorRelation finds a body literal whose term equals the head's first
// variable, returning its relation at the pinned snapshot and the
// attribute position.
func (e *Engine) anchorRelation(c *logic.Clause) (*db.Relation, int) {
	if len(c.Head.Terms) == 0 || !c.Head.Terms[0].IsVar() {
		return nil, 0
	}
	for _, l := range c.Body {
		for p, t := range l.Terms {
			if t == c.Head.Terms[0] {
				if rel := e.snap.Relation(l.Predicate); rel != nil && rel.Len() > 0 {
					return rel, p
				}
			}
		}
	}
	return nil, 0
}
