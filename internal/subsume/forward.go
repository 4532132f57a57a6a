package subsume

import (
	"context"

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
	// WholeRefuted reports that the whole-clause test was answered by the
	// refuter: both are functions of (clause, ground clause, budget)
	// alone.
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
// literal per step. And a refuter runs ahead of every prefix search: it
// keeps, for each variable of the kept prefix, the set of ground values
// that the rows supporting the prefix's literals allow — narrowed to a
// fixpoint after each kept literal — and a literal with no ground row
// consistent with its constants, the head bindings and those sets is
// dropped without a search. The sets over-approximate the values a
// variable takes in any substitution the search could find for the
// prefix, so a refuted prefix is one every search answers "does not
// subsume": a refutation only ever replaces an answer that was already
// no, never a yes. (The whole-clause test and every prefix search are
// the package's one test procedure, so each also stops once for the
// refuter — over all its literals for the whole clause, resumed from the
// prefix's sets for a prefix search: see escalate and refutes.)
func ForwardPass(ctx context.Context, c *logic.Clause, cg *CompiledGround, opts Options) Forward {
	return forward(ctx, c, cg, opts, true)
}

// ForwardScan is ForwardPass for a clause already known not to subsume
// the ground clause under opts (a finished search said so): it skips the
// whole-clause test and goes straight to the prefix scan, whose
// decisions do not read that test. Its result is ForwardPass's with
// WholeRefuted false.
func ForwardScan(ctx context.Context, c *logic.Clause, cg *CompiledGround, opts Options) Forward {
	return forward(ctx, c, cg, opts, false)
}

// forward is the pass, with or without its whole-clause test.
func forward(ctx context.Context, c *logic.Clause, cg *CompiledGround, opts Options, whole bool) Forward {
	opts = opts.normalized()
	m := matcherPool.Get().(*matcher)
	defer m.release()
	cc := &m.cc
	cc.compile(cg.in, c)
	if !m.bindHead(cc, cg) {
		return Forward{}
	}
	out := Forward{HeadMatches: true}
	if whole {
		if m.check(ctx, cc, cg, opts).Subsumes {
			out.Covers = true
			return out
		}
		out.WholeRefuted = m.how == byRefuter
		m.bindHead(cc, cg)
	}
	m.kept.reset(m.nVars, m.nLocal)
	for i := range cc.lits {
		kept, refuted := m.extend(ctx, cg, opts, i)
		if kept {
			out.Kept = append(out.Kept, i)
		}
		if refuted {
			out.Refuted++
		}
	}
	return out
}

// domains maps each variable that occurs in a set of literals to the
// set of ground values the rows supporting those literals allow it: one
// bitset over the ground clause's local ids per variable, with the set's
// size and a member of it (the member, when there is one) on the side.
// The next* fields collect the same, per term position, for the literal
// under test. All of it is matcher scratch: reset keeps every capacity.
type domains struct {
	words int // bitset length, in uint64s
	seen  []bool
	size  []int32
	one   []int32
	bits  []uint64 // variable v's set is bits[v*words:][:words]

	nextSize []int32
	nextOne  []int32
	nextBits []uint64 // position p's set is nextBits[p*words:][:words]
}

// reset empties d for a clause of nVars variables over a ground clause
// of nLocal values. A variable's bitset is written whole when it is first
// narrowed, so only seen needs clearing.
func (d *domains) reset(nVars int, nLocal int32) {
	d.words = (int(nLocal) + 63) / 64
	d.seen = resizeBools(d.seen, nVars)
	clear(d.seen)
	d.size = resizeInt32(d.size, nVars)
	d.one = resizeInt32(d.one, nVars)
	d.bits = resizeUint64(d.bits, nVars*d.words)
}

// copyFrom makes d a copy of src's sets, keeping d's capacities.
func (d *domains) copyFrom(src *domains) {
	d.words = src.words
	d.seen = append(d.seen[:0], src.seen...)
	d.size = append(d.size[:0], src.size...)
	d.one = append(d.one[:0], src.one...)
	d.bits = append(d.bits[:0], src.bits...)
}

// has reports whether value v is in variable id's set.
func (d *domains) has(id, v int32) bool {
	return d.bits[int(id)*d.words+int(v>>6)]&(1<<(v&63)) != 0
}

// extend is one step of ForwardPass over the clause in m.cc: it decides
// body literal i against the kept prefix the matcher holds — refuted
// without a search against the prefix's sets (m.kept), or kept iff the
// search finds the prefix plus the literal subsuming.
func (m *matcher) extend(ctx context.Context, cg *CompiledGround, opts Options, i int) (kept, refuted bool) {
	ext := m.cc.extent(i, cg)
	held := len(m.terms)
	terms := m.litTerms(&m.cc, i, cg)
	if !m.supported(terms, ext, &m.kept) {
		m.terms = m.terms[:held]
		return false, true
	}
	m.pushLit(terms, ext)
	m.sizeSearch()
	m.fromKept = true
	res := m.search(ctx, opts)
	m.fromKept = false
	m.record(opts, res)
	if !res.Subsumes {
		m.popLit()
		m.terms = m.terms[:held]
		return false, false
	}
	m.propagate(&m.kept, len(m.lits)-1) // a kept prefix has a witness: never refuted
	return true, false
}

// refutes reports whether the clause the matcher holds is refuted: its
// body's value sets, narrowed to a fixpoint, leave some literal without
// a supporting row, so no substitution exists for the clause. It reads
// the bound literals — terms already in the ground clause's ids,
// constants re-resolved — and the head bindings; a cancelled refuter
// refutes nothing and sets m.cancelled.
//
// A test of ForwardPass's kept prefix plus one literal (m.fromKept)
// resumes from the prefix's sets, which are already its fixpoint, and
// narrows from the new literal only. A revision only ever shrinks sets,
// and revising smaller sets never yields larger ones, so narrowing ends
// at the one greatest fixpoint from any start that contains it. The
// fixpoint of the prefix plus the literal lies within the prefix's, so
// both starts end at the same sets and the same verdict (DESIGN.md §17).
func (m *matcher) refutes() bool {
	if m.fromKept {
		m.whole.copyFrom(&m.kept)
		return m.propagate(&m.whole, len(m.lits)-1)
	}
	m.whole.reset(m.nVars, m.nLocal)
	return m.propagate(&m.whole, 0)
}

// propagate narrows d to a fixpoint (arc consistency over the bound
// literals) and reports whether some literal is left without a
// supporting row. It sweeps literals from..n-1 in order, as if each were
// kept — literals before from are the ones d was already narrowed over —
// and then revises, until no set shrinks, every literal already checked
// that holds a variable whose set shrank. It polls the context once per
// literal checked; a cancelled propagation refutes nothing and sets
// m.cancelled.
func (m *matcher) propagate(d *domains, from int) bool {
	n := len(m.lits)
	m.inQueue = resizeBools(m.inQueue, n)
	clear(m.inQueue)
	m.queue = m.queue[:0]
	for i := from; i < n; i++ {
		if m.interrupted() {
			return false
		}
		if !m.revise(d, i, i) {
			return true
		}
	}
	for len(m.queue) > 0 {
		if m.interrupted() {
			return false
		}
		li := m.queue[len(m.queue)-1]
		m.queue = m.queue[:len(m.queue)-1]
		m.inQueue[li] = false
		if !m.revise(d, int(li), n) {
			return true
		}
	}
	return false
}

// revise checks bound literal li against d: false when no row supports
// it. Otherwise each of its free variables' sets becomes the values the
// supporting rows give it — a subset of the old set, since a supporting
// row lies within it — and a set that shrank, or was set for the first
// time, queues the other literals below upto that hold its variable.
func (m *matcher) revise(d *domains, li, upto int) bool {
	terms := m.lits[li].terms
	if !m.supported(terms, m.lits[li].ext, d) {
		return false
	}
	w := d.words
	for p, t := range terms {
		v := t.varID
		// A repeated variable's later positions collected the same set.
		if v < 0 || m.initial[v] != 0 || d.seen[v] && d.nextSize[p] == d.size[v] {
			continue
		}
		copy(d.bits[int(v)*w:][:w], d.nextBits[p*w:][:w])
		d.size[v], d.one[v], d.seen[v] = d.nextSize[p], d.nextOne[p], true
		for _, j := range m.varOccs[v] {
			if j < upto && j != li && !m.inQueue[j] {
				m.inQueue[j] = true
				m.queue = append(m.queue, int32(j))
			}
		}
	}
	return true
}

// supported reports whether some row of ext is consistent with the
// literal's constants, the head bindings and d, leaving in d.next* the
// values those rows give each of the literal's free variables. It
// mirrors what the search accepts: a head variable bound to the reserved
// id 0 counts as free, and a literal whose arity differs from its
// extent's matches nothing.
func (m *matcher) supported(terms []cTerm, ext *groundExtent, d *domains) bool {
	if ext == nil || ext.arity != len(terms) {
		return false
	}
	initial, w := m.initial, d.words
	d.nextSize = resizeInt32(d.nextSize, len(terms))
	d.nextOne = resizeInt32(d.nextOne, len(terms))
	d.nextBits = resizeUint64(d.nextBits, len(terms)*w)
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
		case d.seen[t.varID] && d.size[t.varID] == 1:
			want = d.one[t.varID]
		default:
			continue
		}
		if l := ext.posting(p, want); !indexed || len(l) < len(list) {
			list, indexed = l, true
		}
	}
	clear(d.nextSize)
	clear(d.nextBits)
	any := false
	n := ext.n
	if indexed {
		n = len(list)
	}
	for k := 0; k < n; k++ {
		gi := int32(k)
		if indexed {
			gi = list[k]
		}
		row := ext.row(gi)
		if !consistent(terms, row, initial, d) {
			continue
		}
		any = true
		for p, t := range terms {
			if t.varID < 0 || initial[t.varID] != 0 {
				continue
			}
			v := row[p]
			if word, bit := &d.nextBits[p*w+int(v>>6)], uint64(1)<<(v&63); *word&bit == 0 {
				*word |= bit
				d.nextSize[p]++
				d.nextOne[p] = v
			}
		}
	}
	return any
}

// consistent reports whether the ground row agrees with the literal's
// constants, the head bindings, its own repeated variables and d.
func consistent(terms []cTerm, row, initial []int32, d *domains) bool {
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
		if v == noValue {
			return false // a ground literal too short to have this slot
		}
		for q := 0; q < p; q++ {
			if terms[q].varID == t.varID && row[q] != v {
				return false
			}
		}
		if d.seen[t.varID] && !d.has(t.varID, v) {
			return false
		}
	}
	return true
}
