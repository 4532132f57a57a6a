package subsume

import (
	"slices"
	"sync"

	"repro/internal/logic"
)

// CompiledGround is the matcher's compiled, immutable view of one ground
// clause: per-predicate extents (rows of term values) and, for each
// (predicate, position), the posting list of every value. Compiling the
// ground side is the expensive half of a subsumption test — the
// candidate side is a handful of literals, the ground side hundreds —
// and the learner tests hundreds of candidates against the same cached
// ground bottom clause, so the coverage engine compiles each ground BC
// once and shares the result across every CheckCompiled call.
//
// Term values are ground-local dense ids: the clause's distinct values
// numbered in first-occurrence order (head first), local 0 reserved for
// the empty string, which the matcher treats as "unbound". Dense ids are
// what let postings be arrays indexed by value instead of hash maps, so
// the search neither hashes nor chases a pointer per row. The one
// translation from the intern table's ids to local ones is the sorted
// globals/locals pair, consulted when a candidate is bound (its
// constants, the head) — never inside the search.
// Everything but the extent headers lives in one []int32 arena.
//
// A CompiledGround is a pure function of (interner, clause) contents: it
// holds no search state, so it is safe to share across goroutines.
// Candidates compiled against the same interner resolve their strings by
// lookup only, so checking never grows the table.
type CompiledGround struct {
	in       *logic.Interner
	headPred int32   // interned id
	headVals []int32 // local ids
	// headIDs are the head values' interned ids, what head constants and
	// repeats compare; -1 for a value the table did not hold, which is
	// compared by its name in head (sameHead).
	headIDs []int32
	head    logic.Literal
	// globals holds, ascending, the interned ids of the clause's term
	// values; locals[i] is the local id of globals[i]. nLocal counts them
	// and doubles as the local id of "a value this clause does not hold":
	// every posting list of it is empty and no row contains it.
	globals, locals []int32
	nLocal          int32
	// predIDs[i] is the interned predicate of exts[i], in first-occurrence
	// order.
	predIDs []int32
	exts    []groundExtent
	bodyLen int
	arena   []int32
}

// groundExtent is one predicate's compiled extent. arity is the arity of
// the predicate's first ground literal (matching the legacy matcher's
// index construction). rows holds n rows of arity values each, in extent
// order; a longer ground literal is cut to arity (the matcher never read
// past it) and a shorter one padded with noValue, which no literal
// matches. The posting list of value v at position p — the ids of the
// rows holding v there, ascending — is post[off[p*stride+v]:off[p*stride+v+1]],
// with stride = nLocal+2 so that v = nLocal reads as empty.
type groundExtent struct {
	arity  int
	n      int
	stride int
	rows   []int32
	off    []int32
	post   []int32
}

// noValue pads the missing positions of a ground literal shorter than
// its extent's arity. It equals no local id, so constants and bound
// variables reject it by comparison; the one place a row's value is
// accepted unseen — an unbound variable — rejects it by name.
const noValue = -1

// row returns row gi.
func (e *groundExtent) row(gi int32) []int32 {
	return e.rows[int(gi)*e.arity:][:e.arity]
}

// posting returns the ids of the rows holding local value v at position p.
func (e *groundExtent) posting(p int, v int32) []int32 {
	i := p*e.stride + int(v)
	return e.post[e.off[i]:e.off[i+1]]
}

// postingLen is len(posting(p, v)).
func (e *groundExtent) postingLen(p int, v int32) int {
	i := p*e.stride + int(v)
	return int(e.off[i+1] - e.off[i])
}

// compileScratch is CompileGround's pooled working memory. slot is
// indexed by interned id and holds local id + 1 for the values seen so
// far (0 = unseen); it is as long as the largest id compiled through it
// and is wiped entry by entry after each compile.
type compileScratch struct {
	slot     []int32
	byLocal  []int32 // local id → interned id
	terms    []int32 // every body term's local id, literal after literal
	litExt   []int32 // per body literal: index into exts
	litLen   []int32 // per body literal: number of terms
	extRows  []int   // per extent: rows counted, then the fill cursor
	extPosts []int   // per extent: posting entries (Σ min(len, arity))
	pairs    []int64 // (interned id << 32 | local id), sorted
}

var compilePool = sync.Pool{New: func() any { return new(compileScratch) }}

// local returns the local id of interned id g, assigning the next one on
// first sight.
func (sc *compileScratch) local(g int32) int32 {
	if int(g) >= len(sc.slot) {
		sc.slot = append(sc.slot, make([]int32, int(g)+1-len(sc.slot))...)
	}
	if l := sc.slot[g]; l != 0 {
		return l - 1
	}
	l := int32(len(sc.byLocal))
	sc.byLocal = append(sc.byLocal, g)
	sc.slot[g] = l + 1
	return l
}

// CompileGround compiles g against the interner (nil selects a fresh
// private table, the one-shot Check path). Every predicate name and
// body term value of g is interned; a head value is interned only when
// the body holds it. A head-only value — an example constant no body
// literal mentions, such as a served example's unseen entity — matches
// no row, so it takes the local id no row holds (nLocal, as in
// WithHead) and never grows the table: serving unbounded examples
// leaves the engine's table as it was. Extent order, row order and
// posting-list order reproduce the legacy per-call matcher's, so
// searches over the compiled form take bit-identical decisions.
func CompileGround(in *logic.Interner, g *logic.Clause) *CompiledGround {
	if in == nil {
		in = logic.NewInterner()
	}
	// Returned to the pool only by a compile that ran to its end: one that
	// panics midway leaves slot dirty, and is dropped with it.
	sc := compilePool.Get().(*compileScratch)
	sc.byLocal, sc.terms = sc.byLocal[:0], sc.terms[:0]
	sc.litExt, sc.litLen = sc.litExt[:0], sc.litLen[:0]
	sc.extRows, sc.extPosts = sc.extRows[:0], sc.extPosts[:0]

	cg := &CompiledGround{in: in, headPred: in.Intern(g.Head.Predicate), head: g.Head, bodyLen: len(g.Body)}
	sc.local(0) // the empty string is local 0 whether or not it occurs
	note := func(name string) int32 { return sc.local(in.Intern(name)) }

	// Pass 1: number the values, find the extents and size them.
	for _, t := range g.Head.Terms {
		if t.Name == "" || bodyHolds(g.Body, t.Name) {
			sc.terms = append(sc.terms, note(t.Name))
		} else {
			sc.terms = append(sc.terms, headOnly)
		}
	}
	nHead := len(sc.terms)
	last := -1 // bottom clauses list a relation's literals together
	for _, l := range g.Body {
		pid := in.Intern(l.Predicate)
		if last < 0 || cg.predIDs[last] != pid {
			if last = slices.Index(cg.predIDs, pid); last < 0 {
				last = len(cg.predIDs)
				cg.predIDs = append(cg.predIDs, pid)
				cg.exts = append(cg.exts, groundExtent{arity: len(l.Terms)})
				sc.extRows = append(sc.extRows, 0)
				sc.extPosts = append(sc.extPosts, 0)
			}
		}
		sc.litExt = append(sc.litExt, int32(last))
		sc.litLen = append(sc.litLen, int32(len(l.Terms)))
		sc.extRows[last]++
		sc.extPosts[last] += min(len(l.Terms), cg.exts[last].arity)
		for _, t := range l.Terms {
			sc.terms = append(sc.terms, note(t.Name))
		}
	}
	nLocal := len(sc.byLocal)
	cg.nLocal = int32(nLocal)

	// One arena for everything the search reads.
	size := 2*nHead + 2*nLocal
	for i := range cg.exts {
		e := &cg.exts[i]
		e.n, e.stride = sc.extRows[i], nLocal+2
		size += e.n*e.arity + e.arity*e.stride + sc.extPosts[i]
	}
	cg.arena = make([]int32, size)
	next := 0
	carve := func(n int) []int32 {
		s := cg.arena[next : next+n : next+n]
		next += n
		return s
	}
	cg.headVals, cg.headIDs = carve(nHead), carve(nHead)
	for i, l := range sc.terms[:nHead] {
		if l == headOnly {
			cg.headVals[i], cg.headIDs[i] = cg.nLocal, -1
		} else {
			cg.headVals[i], cg.headIDs[i] = l, sc.byLocal[l]
		}
	}
	cg.globals, cg.locals = carve(nLocal), carve(nLocal)
	for i := range cg.exts {
		e := &cg.exts[i]
		e.rows = carve(e.n * e.arity)
		e.off = carve(e.arity * e.stride)
		e.post = carve(sc.extPosts[i])
		sc.extRows[i] = 0
	}

	// Pass 2: rows in extent order, counting each (position, value) into
	// the off slot after its own.
	at := nHead
	for li, xi := range sc.litExt {
		e := &cg.exts[xi]
		n := int(sc.litLen[li])
		row := e.row(int32(sc.extRows[xi]))
		sc.extRows[xi]++
		for p := range row {
			if p >= n {
				row[p] = noValue
				continue
			}
			row[p] = sc.terms[at+p]
			e.off[p*e.stride+int(row[p])+1]++
		}
		at += n
	}
	// Postings by counting sort: a running sum turns the counts into list
	// starts, the fill walks the rows in order (so row ids land ascending
	// in every list) advancing each start to its list's end — the next
	// list's start — and one shift puts the starts back.
	for i := range cg.exts {
		e := &cg.exts[i]
		sum := int32(0)
		for k, c := range e.off {
			sum += c
			e.off[k] = sum
		}
		for gi := int32(0); int(gi) < e.n; gi++ {
			for p, v := range e.row(gi) {
				if v == noValue {
					continue
				}
				k := p*e.stride + int(v)
				e.post[e.off[k]] = gi
				e.off[k]++
			}
		}
		copy(e.off[1:], e.off)
		if len(e.off) > 0 {
			e.off[0] = 0
		}
	}

	// The bind-time table, ascending by interned id.
	sc.pairs = sc.pairs[:0]
	for l, gid := range sc.byLocal {
		sc.pairs = append(sc.pairs, int64(gid)<<32|int64(l))
		sc.slot[gid] = 0
	}
	slices.Sort(sc.pairs)
	for i, pr := range sc.pairs {
		cg.globals[i], cg.locals[i] = int32(pr>>32), int32(uint32(pr))
	}
	compilePool.Put(sc)
	return cg
}

// headOnly marks, in CompileGround's pass 1, a head value the body
// does not hold.
const headOnly = -2

// bodyHolds reports whether some body literal of a ground clause has a
// term named name.
func bodyHolds(body []logic.Literal, name string) bool {
	for _, l := range body {
		for _, t := range l.Terms {
			if t.Name == name {
				return true
			}
		}
	}
	return false
}

// WithHead returns cg with its head replaced by the ground literal h,
// sharing cg's extents and arena: a database compiled once as a ground
// clause answers every example's coverage test through it. h's
// predicate is interned, its values only looked up. A value of h that
// cg does not hold matches no row, and two such values are equal only
// when their names are: head constants and repeated head variables
// compare interned ids, or names where the table lacks one (sameHead),
// never local ones. The empty string stays the matcher's "unbound"
// value, as in every ground clause: a head variable bound to it is free.
func (cg *CompiledGround) WithHead(h logic.Literal) *CompiledGround {
	out := *cg
	out.headPred = cg.in.Intern(h.Predicate)
	out.head = h
	out.headVals, out.headIDs = make([]int32, len(h.Terms)), make([]int32, len(h.Terms))
	for i, t := range h.Terms {
		id, ok := cg.in.Lookup(t.Name)
		if !ok {
			id = -1
		}
		out.headIDs[i], out.headVals[i] = id, cg.localOf(id)
	}
	return &out
}

// sameHead reports whether head value i is the symbol (id, name): by
// interned id when both sides have one, else by name.
func (cg *CompiledGround) sameHead(i int, id int32, name string) bool {
	if h := cg.headIDs[i]; h >= 0 && id >= 0 {
		return h == id
	}
	return cg.head.Terms[i].Name == name
}

// Interner returns the intern table the ground clause was compiled with.
func (cg *CompiledGround) Interner() *logic.Interner { return cg.in }

// localOf translates an interned id to the clause's local id for it;
// ids the clause does not hold (the never-equal -1 included) map to
// nLocal, whose posting lists are all empty.
func (cg *CompiledGround) localOf(id int32) int32 {
	if i, ok := slices.BinarySearch(cg.globals, id); ok {
		return cg.locals[i]
	}
	return cg.nLocal
}

// extent returns the extent of the interned predicate, nil when the
// clause has no literal of it.
func (cg *CompiledGround) extent(pred int32) *groundExtent {
	if i := slices.Index(cg.predIDs, pred); i >= 0 {
		return &cg.exts[i]
	}
	return nil
}

// BodyLen returns the number of ground body literals compiled.
func (cg *CompiledGround) BodyLen() int { return cg.bodyLen }
