package subsume

// The package's reference implementations, in one place.
//
// legacyCheck preserves the pre-interning, string-keyed matcher verbatim
// (modulo renames, dropped instrumentation and the randomized retry
// loop, which left with its option). equiv_test.go asserts that CheckCompiled
// returns bit-identical Results — same Subsumes/Complete/Cancelled and
// the same node count, budget exhaustion included — so the compiled
// representation can never drift from the legacy semantics unnoticed;
// escalation_test.go holds the escalating test procedure to it.
//
// referenceForward is the armg forward pass as it ran before ForwardPass
// existed: one from-scratch test for the head, one for the whole clause,
// one per body literal over the kept prefix plus that literal — no
// refuter, no incremental compilation. forward_test.go holds ForwardPass
// to it on synthetic instances; the root TestARMGOracle does the same
// over every bundled dataset's bottom clauses.

import (
	"context"

	"repro/internal/logic"
)

// The compile-per-check wrappers the suites are written against: each
// compiles the ground side, then the candidate, for one test. Nothing
// outside the tests checks a clause that way.

func Subsumes(c, g *logic.Clause, opts Options) bool { return Check(c, g, opts).Subsumes }

func Check(c, g *logic.Clause, opts Options) Result {
	return CheckCtx(context.Background(), c, g, opts)
}

func SubsumesCtx(ctx context.Context, c, g *logic.Clause, opts Options) bool {
	return CheckCtx(ctx, c, g, opts).Subsumes
}

func CheckCtx(ctx context.Context, c, g *logic.Clause, opts Options) Result {
	return CheckCompiledCtx(ctx, c, CompileGround(nil, g), opts)
}

// referenceForward decides what ForwardPass decides with one independent
// CheckCompiled per decision.
func referenceForward(c *logic.Clause, cg *CompiledGround, opts Options) Forward {
	var want Forward
	if !CheckCompiled(&logic.Clause{Head: c.Head}, cg, opts).Subsumes {
		return want
	}
	want.HeadMatches = true
	if CheckCompiled(c, cg, opts).Subsumes {
		want.Covers = true
		return want
	}
	trial := &logic.Clause{Head: c.Head}
	for i, lit := range c.Body {
		trial.Body = append(trial.Body, lit)
		if CheckCompiled(trial, cg, opts).Subsumes {
			want.Kept = append(want.Kept, i)
		} else {
			trial.Body = trial.Body[:len(trial.Body)-1]
		}
	}
	return want
}

func legacyCheck(ctx context.Context, c, g *logic.Clause, opts Options) Result {
	opts = opts.normalized()
	m, ok := newLegacyMatcher(c, g)
	if !ok {
		return Result{Subsumes: false, Complete: true}
	}
	m.done = ctx.Done()

	m.maxNodes = opts.MaxNodes
	found, exhausted := m.run()
	if found {
		return Result{Subsumes: true, Complete: true, Nodes: m.nodes}
	}
	if m.cancelled {
		return Result{Subsumes: false, Complete: false, Cancelled: true, Nodes: m.nodes}
	}
	return Result{Subsumes: false, Complete: !exhausted, Nodes: m.nodes}
}

type legacyCTerm struct {
	varID int
	val   string
}

type legacyCLit struct {
	terms  []legacyCTerm
	extent []logic.Literal
	index  []map[string][]int
}

type legacyMatcher struct {
	lits      []legacyCLit
	initial   []string
	varOccs   [][]int
	nVars     int
	vals      []string
	bound     []bool
	matched   []bool
	deg       []int
	baseDeg   []int
	remaining int
	nodes     int
	maxNodes  int
	done      <-chan struct{}
	cancelled bool
	buckets   [][]int
	pos       []int
	topDeg    int
}

func newLegacyMatcher(c, g *logic.Clause) (*legacyMatcher, bool) {
	if c.Head.Predicate != g.Head.Predicate || len(c.Head.Terms) != len(g.Head.Terms) {
		return nil, false
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
		gv := g.Head.Terms[i].Name
		if t.IsConst() {
			if t.Name != gv {
				return nil, false
			}
			continue
		}
		id := idOf(t.Name)
		if prev, ok := headVal[id]; ok {
			if prev != gv {
				return nil, false
			}
			continue
		}
		headVal[id] = gv
	}

	byPred := make(map[string][]logic.Literal)
	for _, l := range g.Body {
		byPred[l.Predicate] = append(byPred[l.Predicate], l)
	}
	indexByPred := make(map[string][]map[string][]int)

	m := &legacyMatcher{lits: make([]legacyCLit, len(c.Body))}
	for i, l := range c.Body {
		ext := byPred[l.Predicate]
		if len(ext) == 0 {
			return nil, false
		}
		idx := indexByPred[l.Predicate]
		if idx == nil {
			arity := len(ext[0].Terms)
			idx = make([]map[string][]int, arity)
			for p := range idx {
				idx[p] = make(map[string][]int)
			}
			for gi, gl := range ext {
				for p, t := range gl.Terms {
					if p < arity {
						idx[p][t.Name] = append(idx[p][t.Name], gi)
					}
				}
			}
			indexByPred[l.Predicate] = idx
		}
		cl := legacyCLit{terms: make([]legacyCTerm, len(l.Terms)), extent: ext, index: idx}
		for p, t := range l.Terms {
			if t.IsConst() {
				cl.terms[p] = legacyCTerm{varID: -1, val: t.Name}
			} else {
				cl.terms[p] = legacyCTerm{varID: idOf(t.Name)}
			}
		}
		m.lits[i] = cl
	}

	m.nVars = len(varID)
	m.initial = make([]string, m.nVars)
	for id, v := range headVal {
		m.initial[id] = v
	}
	m.varOccs = make([][]int, m.nVars)
	for li, cl := range m.lits {
		for _, t := range cl.terms {
			if t.varID >= 0 {
				m.varOccs[t.varID] = append(m.varOccs[t.varID], li)
			}
		}
	}
	m.baseDeg = make([]int, len(m.lits))
	for li, cl := range m.lits {
		for _, t := range cl.terms {
			if t.varID < 0 || m.initial[t.varID] != "" {
				m.baseDeg[li]++
			}
		}
	}
	m.vals = make([]string, m.nVars)
	m.bound = make([]bool, m.nVars)
	m.matched = make([]bool, len(m.lits))
	m.deg = make([]int, len(m.lits))
	maxDeg := 0
	for _, cl := range m.lits {
		if len(cl.terms) > maxDeg {
			maxDeg = len(cl.terms)
		}
	}
	m.buckets = make([][]int, maxDeg+1)
	m.pos = make([]int, len(m.lits))
	return m, true
}

func (m *legacyMatcher) bucketAdd(li int) {
	d := m.deg[li]
	m.pos[li] = len(m.buckets[d])
	m.buckets[d] = append(m.buckets[d], li)
	if d > m.topDeg {
		m.topDeg = d
	}
}

func (m *legacyMatcher) bucketRemove(li int) {
	d := m.deg[li]
	b := m.buckets[d]
	p := m.pos[li]
	last := len(b) - 1
	b[p] = b[last]
	m.pos[b[p]] = p
	m.buckets[d] = b[:last]
}

func (m *legacyMatcher) run() (bool, bool) {
	m.nodes = 0
	m.remaining = len(m.lits)
	for d := range m.buckets {
		m.buckets[d] = m.buckets[d][:0]
	}
	m.topDeg = 0
	for i := range m.matched {
		m.matched[i] = false
		m.deg[i] = m.baseDeg[i]
		m.bucketAdd(i)
	}
	for v := 0; v < m.nVars; v++ {
		m.vals[v] = m.initial[v]
		m.bound[v] = m.initial[v] != ""
	}
	if m.remaining == 0 {
		return true, false
	}
	return m.solve()
}

func (m *legacyMatcher) pickLiteral() int {
	for m.topDeg > 0 && len(m.buckets[m.topDeg]) == 0 {
		m.topDeg--
	}
	b := m.buckets[m.topDeg]
	if len(b) == 0 {
		return -1
	}
	best := b[0]
	if m.topDeg == 0 || len(b) == 1 {
		return best
	}
	bestBound := m.candidateBound(best)
	if bestBound <= 1 {
		return best
	}
	limit := len(b)
	if limit > 4 {
		limit = 4
	}
	for i := 1; i < limit; i++ {
		if bd := m.candidateBound(b[i]); bd < bestBound {
			best, bestBound = b[i], bd
			if bd <= 1 {
				break
			}
		}
	}
	return best
}

func (m *legacyMatcher) candidateBound(li int) int {
	cl := &m.lits[li]
	best := len(cl.extent)
	if len(cl.index) != len(cl.terms) {
		return 0
	}
	for p, t := range cl.terms {
		var want string
		if t.varID < 0 {
			want = t.val
		} else if m.bound[t.varID] {
			want = m.vals[t.varID]
		} else {
			continue
		}
		if n := len(cl.index[p][want]); n < best {
			best = n
			if best == 0 {
				return 0
			}
		}
	}
	return best
}

func (m *legacyMatcher) candidates(li int) []int {
	cl := &m.lits[li]
	if len(cl.index) != len(cl.terms) {
		return nil
	}
	var bestList []int
	haveBound := false
	for p, t := range cl.terms {
		var want string
		if t.varID < 0 {
			want = t.val
		} else if m.bound[t.varID] {
			want = m.vals[t.varID]
		} else {
			continue
		}
		list := cl.index[p][want]
		if !haveBound || len(list) < len(bestList) {
			bestList, haveBound = list, true
			if len(list) == 0 {
				return nil
			}
		}
	}

	check := func(g logic.Literal) bool {
		for p, t := range cl.terms {
			if t.varID < 0 {
				if t.val != g.Terms[p].Name {
					return false
				}
				continue
			}
			if m.bound[t.varID] && m.vals[t.varID] != g.Terms[p].Name {
				return false
			}
		}
		return true
	}

	var out []int
	if haveBound {
		for _, gi := range bestList {
			if check(cl.extent[gi]) {
				out = append(out, gi)
			}
		}
		return out
	}
	for gi, gl := range cl.extent {
		if check(gl) {
			out = append(out, gi)
		}
	}
	return out
}

func (m *legacyMatcher) bindVar(v int, val string) {
	m.vals[v] = val
	m.bound[v] = true
	for _, li := range m.varOccs[v] {
		if m.matched[li] {
			m.deg[li]++
			continue
		}
		m.bucketRemove(li)
		m.deg[li]++
		m.bucketAdd(li)
	}
}

func (m *legacyMatcher) unbindVar(v int) {
	m.vals[v] = ""
	m.bound[v] = false
	for _, li := range m.varOccs[v] {
		if m.matched[li] {
			m.deg[li]--
			continue
		}
		m.bucketRemove(li)
		m.deg[li]--
		m.bucketAdd(li)
	}
}

func (m *legacyMatcher) over() bool {
	if m.nodes >= m.maxNodes {
		return true
	}
	if m.done != nil && m.nodes&0xff == 0 {
		select {
		case <-m.done:
			m.cancelled = true
			return true
		default:
		}
	}
	return false
}

func (m *legacyMatcher) solve() (bool, bool) {
	if m.remaining == 0 {
		return true, false
	}
	if m.over() {
		return false, true
	}

	li := m.pickLiteral()
	cands := m.candidates(li)
	if len(cands) == 0 {
		return false, false
	}

	cl := &m.lits[li]
	m.bucketRemove(li)
	m.matched[li] = true
	m.remaining--
	defer func() {
		m.matched[li] = false
		m.remaining++
		m.bucketAdd(li)
	}()

	var boundBuf [8]int
	exhausted := false
	for _, gi := range cands {
		m.nodes++
		if m.over() {
			return false, true
		}
		g := cl.extent[gi]
		bound := boundBuf[:0]
		ok := true
		for p, t := range cl.terms {
			if t.varID < 0 {
				continue
			}
			if m.bound[t.varID] {
				if m.vals[t.varID] != g.Terms[p].Name {
					ok = false
					break
				}
				continue
			}
			m.bindVar(t.varID, g.Terms[p].Name)
			bound = append(bound, t.varID)
		}
		if ok {
			matched, ex := m.solve()
			if matched {
				return true, false
			}
			if ex {
				exhausted = true
			}
		}
		for _, v := range bound {
			m.unbindVar(v)
		}
		if exhausted {
			return false, true
		}
	}
	return false, exhausted
}
