package subsume

import (
	"context"

	"repro/internal/logic"
)

// CompiledClause is the candidate side of a subsumption test compiled
// once against an intern table: variables become dense integer ids,
// predicate names and constants resolve to interned ids. Compiling is
// the part of a test that hashes strings under the table's lock, and it
// does not depend on the ground clause, so a caller testing one
// candidate against many compiled grounds of the same table compiles it
// once and pays only the per-ground binding (head values and
// per-predicate extents) per test.
//
// Symbols resolve by lookup only — checking never grows the table. The
// table may still be growing while the clause is in use (ground clauses
// are compiled into it between tests), so a symbol that was absent at
// compile time is looked up again each time the clause is bound. A
// CompiledClause is immutable once built and safe to share across
// goroutines.
type CompiledClause struct {
	src      *logic.Clause
	in       *logic.Interner
	headPred int32
	head     []cTerm
	lits     []ccLit
	nVars    int
	// stale records that some predicate or constant was not in the table
	// at compile time and holds the never-equal id -1.
	stale  bool
	varIDs map[string]int32 // compile scratch
}

// ccLit is a compiled body literal not yet bound to a ground extent.
type ccLit struct {
	pred  int32
	terms []cTerm
}

// CompileClause compiles c against the table.
func CompileClause(in *logic.Interner, c *logic.Clause) *CompiledClause {
	cc := new(CompiledClause)
	cc.compile(in, c)
	return cc
}

// compile (re)builds cc for c, reusing cc's storage. Variable ids follow
// first occurrence, head first; they are labels only — no search
// decision depends on their order.
func (cc *CompiledClause) compile(in *logic.Interner, c *logic.Clause) {
	cc.src, cc.in, cc.stale = c, in, false
	if cc.varIDs == nil {
		cc.varIDs = make(map[string]int32)
	} else {
		clear(cc.varIDs)
	}
	lookup := func(s string) int32 {
		if id, ok := in.Lookup(s); ok {
			return id
		}
		cc.stale = true
		return -1
	}
	terms := func(dst []cTerm, src []logic.Term) []cTerm {
		dst = resizeTerms(dst, len(src))
		for p, t := range src {
			if t.IsConst() {
				dst[p] = cTerm{varID: -1, val: lookup(t.Name)}
				continue
			}
			id, ok := cc.varIDs[t.Name]
			if !ok {
				id = int32(len(cc.varIDs))
				cc.varIDs[t.Name] = id
			}
			dst[p] = cTerm{varID: id}
		}
		return dst
	}
	cc.headPred = lookup(c.Head.Predicate)
	cc.head = terms(cc.head, c.Head.Terms)
	if cap(cc.lits) < len(c.Body) {
		lits := make([]ccLit, len(c.Body))
		copy(lits, cc.lits[:cap(cc.lits)])
		cc.lits = lits
	}
	cc.lits = cc.lits[:len(c.Body)]
	for i, l := range c.Body {
		cc.lits[i].pred = lookup(l.Predicate)
		cc.lits[i].terms = terms(cc.lits[i].terms, l.Terms)
	}
	cc.nVars = len(cc.varIDs)
}

// resolve returns id, or a fresh lookup of name when id is the
// unresolved -1 left by compile.
func (cc *CompiledClause) resolve(id int32, name string) int32 {
	if id < 0 && cc.stale {
		if v, ok := cc.in.Lookup(name); ok {
			return v
		}
	}
	return id
}

// extent returns the ground extent body literal i must match in, nil
// when the ground clause has no literal of that predicate.
func (cc *CompiledClause) extent(i int, cg *CompiledGround) *groundExtent {
	return cg.extent(cc.resolve(cc.lits[i].pred, cc.src.Body[i].Predicate))
}

// CheckClauseCtx tests a pre-compiled candidate against a pre-compiled
// ground clause. Outcomes are bit-identical to CheckCompiledCtx on the
// clause cc was compiled from.
func CheckClauseCtx(ctx context.Context, cc *CompiledClause, cg *CompiledGround, opts Options) Result {
	if cc.in != cg.in {
		// Ids of different tables do not compare.
		return CheckCompiledCtx(ctx, cc.src, cg, opts)
	}
	m := matcherPool.Get().(*matcher)
	defer m.release()
	return m.check(ctx, cc, cg, opts.normalized())
}
