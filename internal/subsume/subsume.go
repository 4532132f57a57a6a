// Package subsume implements θ-subsumption testing, the coverage
// primitive of §5: clause C θ-subsumes ground clause G iff there is a
// substitution θ with Cθ.Head = G.Head and every body literal of Cθ
// appearing in G's body. The learner tests whether a candidate clause
// covers an example by checking whether it subsumes the example's ground
// bottom clause.
//
// Subsumption is NP-hard, so the engine is an anytime approximation: a
// deterministic backtracking search with fail-first literal ordering
// runs under a node budget, and an inconclusive outcome is reported as
// "does not subsume", matching the paper's use of approximate coverage.
// There is one deterministic pass per test: the randomized restarts of
// Kuzelka and Zelezny [29] were never switched on by any caller and are
// gone (DESIGN.md §21).
//
// A test escalates. Most are decided by the search within a few dozen
// nodes, while the few that exhaust a budget of thousands own most of
// the nodes — and most of those have no substitution at all. So the
// deterministic pass stops once, at probeNodes, for the whole-clause
// refuter (forward.go: the bound literals' value sets narrowed to a
// fixpoint): a refuted test is answered "does not subsume,
// complete" there and then, anything else carries on as the same pass,
// node for node. A test the pass decides before the stop is the legacy
// test; a refutation only replaces an answer that was "no" already
// (exhausted or not); the rest is the legacy pass with a pause in it. No
// verdict changes — only fewer tests report an exhausted budget.
//
// Bottom clauses routinely hold hundreds of literals and coverage
// testing dominates learning time, so matching is split into two
// compilation phases. CompileGround builds an immutable index of the
// ground side — per-predicate extents and per-(predicate, position)
// posting arrays over ground-local dense ids — that callers cache and
// share: the coverage engine compiles each ground bottom clause once and
// tests hundreds of beam-search candidates against it. CompileClause
// does the same for the candidate side (the engine keeps one per clause;
// CheckCompiled compiles one per call for callers that test a clause
// once): variables become dense integer ids (the substitution is an
// array, not a map), constants resolve to interned ids by lookup (see
// logic.Interner) and to the ground clause's local ids when the clause
// is bound to it, each literal's "constrained degree" (term slots held
// by a constant or a bound variable) is maintained incrementally as
// variables bind and unbind, and candidate sets are retrieved through
// the most selective bound position. The inner loop indexes arrays and
// compares int32s only — no hashing of strings or ids survives past
// binding. Per-check state (substitution, trail, degree buckets, the
// refuter's value sets) is recycled through a sync.Pool, so a
// steady-state check allocates nothing.
//
// Concurrency contract: CheckCompiled(Ctx), CheckClauseCtx and
// ForwardPass are pure with respect to shared state — every call binds
// into search state of its own. A CompiledGround and a
// CompiledClause are immutable and safe to share. The outcome of a test
// therefore depends only on (c, g, opts), never on which worker runs it
// or in what order, which is what lets the parallel coverage engine in
// internal/learn fan tests out without perturbing results.
package subsume

import (
	"context"
	"sync"

	"repro/internal/faultpoint"
	"repro/internal/logic"
	"repro/internal/metrics"
)

// Options bounds the search.
type Options struct {
	// MaxNodes is the binding-attempt budget of a test. <=0 selects a
	// default of 100000.
	MaxNodes int
	// Seed is not read by subsumption, which draws nothing. It is the
	// run seed a coverage engine carries beside its budget: the engine
	// derives every ground bottom clause's RNG seed from this exact value
	// (learn's deriveSeed, un-defaulted — golden theories depend on it),
	// and artifacts and shard fingerprints record it.
	Seed int64
	// Metrics, when non-nil, receives per-test counters (tests run, nodes
	// expanded, budget exhaustions). Subsumption totals are reported as
	// gauges, yet fixed by the inputs: every coverage count is exact, so
	// the worker count never changes which tests run (see the metrics
	// package's determinism contract).
	Metrics *metrics.Collector
}

func (o Options) normalized() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 100000
	}
	return o
}

// Result reports the outcome of a subsumption check.
type Result struct {
	// Subsumes is true when a substitution was found.
	Subsumes bool
	// Complete is true when the answer is exact: either a substitution
	// was found, or the full search space was exhausted. When false, the
	// budget ran out and Subsumes is a (sound-negative) approximation.
	Complete bool
	// Cancelled is true when the check was interrupted by its context
	// mid-search; Subsumes is then false and Complete is false.
	Cancelled bool
	// Nodes is the total number of binding attempts across all passes.
	Nodes int
}

// CheckCompiled tests c against a pre-compiled ground clause, compiling
// the candidate for the call. The compiled forms change representation,
// never decisions (equiv_test.go holds them to the string-keyed legacy
// matcher).
func CheckCompiled(c *logic.Clause, cg *CompiledGround, opts Options) Result {
	return CheckCompiledCtx(context.Background(), c, cg, opts)
}

// CheckCompiledCtx is CheckCompiled under a context. Cancellation is
// folded into the node-budget check loop, so an in-flight search stops
// within a few hundred binding attempts of ctx being done — timeouts
// interrupt mid-test rather than waiting out the node budget.
func CheckCompiledCtx(ctx context.Context, c *logic.Clause, cg *CompiledGround, opts Options) Result {
	m := matcherPool.Get().(*matcher)
	defer m.release()
	m.cc.compile(cg.in, c)
	return m.check(ctx, &m.cc, cg, opts.normalized())
}

// probeNodes is where the deterministic pass stops for the refuter. It
// is a constant of the procedure, not a tuning knob: high enough that
// the ~95 % of coverage tests the search answers in a few dozen nodes
// never pay for the refuter, low enough that a test bound for a budget of
// thousands has spent a twentieth of it. A budget not above it leaves no
// test to rescue, so such a search never stops.
const probeNodes = 256

// stage names what answered a test.
type stage uint8

const (
	bySearch  stage = iota // the search under the caller's budget (or the bind)
	byProbe                // the search, before it reached probeNodes
	byRefuter              // the refuter, at probeNodes
)

// record applies per-test instrumentation on every exit path.
func (m *matcher) record(opts Options, res Result) {
	if mc := opts.Metrics; mc.Enabled() {
		mc.Inc(metrics.SubsumeTests)
		mc.Add(metrics.SubsumeNodes, int64(res.Nodes))
		mc.Observe(metrics.HistSubsumeNodes, int64(res.Nodes))
		switch {
		case res.Cancelled:
		case !res.Complete:
			mc.Inc(metrics.SubsumeBudgetExhausted)
		case m.how == byProbe:
			mc.Inc(metrics.SubsumeProbeDecided)
		case m.how == byRefuter:
			mc.Inc(metrics.SubsumeRefuted)
		}
	}
}

// check is the one test procedure: bind cc over the ground clause,
// search, count. opts are normalized.
func (m *matcher) check(ctx context.Context, cc *CompiledClause, cg *CompiledGround, opts Options) Result {
	// Head mismatch, or a body predicate absent from g.
	res := Result{Subsumes: false, Complete: true}
	m.how = bySearch
	if m.bind(cc, cg) {
		res = m.search(ctx, opts)
	}
	m.record(opts, res)
	return res
}

// search runs the deterministic pass — with its one stop for the refuter
// when the budget is above probeNodes — over the clause the matcher
// currently holds.
func (m *matcher) search(ctx context.Context, opts Options) Result {
	m.how = bySearch
	if faultpoint.Enabled() {
		if err := faultpoint.Inject(ctx, "subsume.check"); err != nil {
			// An injected error (or a cancelled injected delay) aborts the
			// test as inconclusive — the same sound-negative degradation a
			// real cancellation produces.
			return Result{Subsumes: false, Complete: false, Cancelled: true}
		}
	}
	m.cancelled = false
	m.done = ctx.Done()

	m.budget = opts.MaxNodes
	m.maxNodes = min(opts.MaxNodes, probeNodes)
	m.probing = opts.MaxNodes > probeNodes
	found, exhausted := m.run()
	if m.probing {
		// The pass ended short of the stop: it is the legacy pass.
		m.probing, m.how = false, byProbe
	}
	switch {
	case found:
		return Result{Subsumes: true, Complete: true, Nodes: m.nodes}
	case m.cancelled:
		return Result{Subsumes: false, Complete: false, Cancelled: true, Nodes: m.nodes}
	}
	return Result{Subsumes: false, Complete: !exhausted || m.how == byRefuter, Nodes: m.nodes}
}

// cTerm is a compiled candidate term: an interned constant value, or a
// variable id.
type cTerm struct {
	varID int32 // -1 for constants
	val   int32 // interned constant value; -1 when absent from the table
}

// cLit is a compiled candidate body literal bound to its ground extent.
// terms aliases the CompiledClause the literal came from (read-only).
type cLit struct {
	terms []cTerm
	ext   *groundExtent
}

// matcher holds one check's bound candidate and search state. All of it
// is scratch: matchers are recycled through matcherPool and every slice
// is resized (capacity kept) by bind, so steady-state checks allocate
// nothing.
type matcher struct {
	lits []cLit
	// initial[v] is the ground value (a local id of the ground clause, as
	// every value below is) the head fixes for variable v: 0, the
	// empty-string id, when the head leaves it free — the same sentinel
	// the legacy string matcher used.
	initial []int32
	// varOccs[v] lists the literals holding variable v, once per
	// position, so a literal's degree counts its bound positions.
	varOccs [][]int
	nVars   int
	nLocal  int32 // the ground clause's value count: the refuter's set width

	// cc is the one-shot paths' clause scratch (CheckCompiledCtx and
	// ForwardPass compile into it and bind it in the same call); terms
	// holds the private copies of the literals that carry constants,
	// translated to the ground clause's ids at bind time.
	cc    CompiledClause
	terms []cTerm

	// Search state, reset by run(). vals is the substitution (variable
	// id → interned bound value); the per-literal trail lives on solve's
	// stack.
	vals      []int32
	bound     []bool
	matched   []bool
	deg       []int
	baseDeg   []int
	remaining int
	nodes     int
	maxNodes  int
	// The escalation: while probing, maxNodes is probeNodes and budget
	// holds the caller's; how names what answered the test. fromKept is
	// set while ForwardPass searches its kept prefix plus one literal: the
	// refuter at the stop then resumes from the prefix's sets.
	budget   int
	probing  bool
	fromKept bool
	how      stage
	// done is the context's cancellation channel (nil = uncancellable);
	// polled alongside the node-budget check so cancellation interrupts
	// the search mid-pass. cancelled records that it fired.
	done      <-chan struct{}
	cancelled bool

	// Degree buckets make pickLiteral O(1): buckets[d] holds the
	// unmatched literals with constrained degree d; pos[li] is li's slot
	// in its bucket; topDeg is the highest possibly-non-empty bucket.
	buckets [][]int
	pos     []int
	topDeg  int

	// The refuter's value sets (forward.go): whole for the bound clause
	// at the stop, kept for ForwardPass's prefix; queue and inQueue are
	// propagate's pending revisions.
	whole, kept domains
	queue       []int32
	inQueue     []bool
}

var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// release drops references into the compiled ground and the candidate
// (so pooling a matcher never pins either in memory) and returns it to
// the pool.
func (m *matcher) release() {
	clear(m.lits)
	m.cc.src = nil
	m.done = nil
	matcherPool.Put(m)
}

// bindHead starts a binding of cc over the compiled ground: it unifies
// the head (binding head variables, rejecting constant mismatches) and
// leaves the matcher holding the empty-bodied clause. ok is false when
// the head cannot match.
func (m *matcher) bindHead(cc *CompiledClause, cg *CompiledGround) bool {
	if hp := cc.resolve(cc.headPred, cc.src.Head.Predicate); hp != cg.headPred || len(cc.head) != len(cg.headVals) {
		return false
	}
	m.nVars, m.nLocal = cc.nVars, cg.nLocal
	clear(m.lits) // nothing past len may pin a ground clause or a candidate
	m.lits = m.lits[:0]
	m.baseDeg = m.baseDeg[:0]
	m.terms = m.terms[:0]
	m.initial = resizeInt32(m.initial, m.nVars)
	clear(m.initial)
	m.varOccs = resizeOccs(m.varOccs, m.nVars)
	for i, t := range cc.head {
		if t.varID < 0 {
			name := cc.src.Head.Terms[i].Name
			if !cg.sameHead(i, cc.resolve(t.val, name), name) {
				return false
			}
			continue
		}
		// A repeated head variable must see one ground value.
		for j := 0; j < i; j++ {
			if cc.head[j].varID == t.varID && !cg.sameHead(j, cg.headIDs[i], cg.head.Terms[i].Name) {
				return false
			}
		}
		m.initial[t.varID] = cg.headVals[i]
	}
	return true
}

// bind binds the whole of cc over the compiled ground. ok is false when
// the head cannot match or some body predicate has no extent.
func (m *matcher) bind(cc *CompiledClause, cg *CompiledGround) bool {
	if !m.bindHead(cc, cg) {
		return false
	}
	for i := range cc.lits {
		ext := cc.extent(i, cg)
		if ext == nil {
			return false
		}
		m.pushLit(m.litTerms(cc, i, cg), ext)
	}
	m.sizeSearch()
	return true
}

// litTerms returns body literal i's terms as the search reads them: the
// clause's own (shared, read-only) when it holds variables only,
// otherwise a copy private to this binding whose constants are the
// ground clause's local ids. A constant absent from the intern table
// when the clause was compiled is looked up again first — the table
// grows while ground clauses are compiled — so nothing downstream of a
// binding, the refuter included, ever reads a stale id.
func (m *matcher) litTerms(cc *CompiledClause, i int, cg *CompiledGround) []cTerm {
	terms := cc.lits[i].terms
	for p, t := range terms {
		if t.varID >= 0 {
			continue
		}
		from := len(m.terms)
		m.terms = append(m.terms, terms...)
		own := m.terms[from:len(m.terms):len(m.terms)]
		for q := p; q < len(own); q++ {
			if own[q].varID < 0 {
				own[q].val = cg.localOf(cc.resolve(own[q].val, cc.src.Body[i].Terms[q].Name))
			}
		}
		return own
	}
	return terms
}

// pushLit appends a body literal to the bound clause. Base degree counts
// the term slots held by constants and head-bound variables.
func (m *matcher) pushLit(terms []cTerm, ext *groundExtent) {
	li := len(m.lits)
	m.lits = append(m.lits, cLit{terms: terms, ext: ext})
	d := 0
	for _, t := range terms {
		if t.varID >= 0 {
			m.varOccs[t.varID] = append(m.varOccs[t.varID], li)
		}
		if t.varID < 0 || m.initial[t.varID] != 0 {
			d++
		}
	}
	m.baseDeg = append(m.baseDeg, d)
}

// popLit removes the literal pushed last.
func (m *matcher) popLit() {
	li := len(m.lits) - 1
	for _, t := range m.lits[li].terms {
		if t.varID >= 0 {
			occs := m.varOccs[t.varID]
			m.varOccs[t.varID] = occs[:len(occs)-1]
		}
	}
	m.lits[li] = cLit{}
	m.lits = m.lits[:li]
	m.baseDeg = m.baseDeg[:li]
}

// sizeSearch sizes the per-search state for the literals now bound.
func (m *matcher) sizeSearch() {
	m.vals = resizeInt32(m.vals, m.nVars)
	m.bound = resizeBools(m.bound, m.nVars)
	m.matched = resizeBools(m.matched, len(m.lits))
	m.deg = resizeInts(m.deg, len(m.lits))
	maxDeg := 0
	for li := range m.lits {
		if n := len(m.lits[li].terms); n > maxDeg {
			maxDeg = n
		}
	}
	if cap(m.buckets) < maxDeg+1 {
		m.buckets = append(m.buckets[:cap(m.buckets)], make([][]int, maxDeg+1-cap(m.buckets))...)
	}
	m.buckets = m.buckets[:maxDeg+1]
	m.pos = resizeInts(m.pos, len(m.lits))
}

// resize helpers: keep capacity across pooled reuse, reallocate only on
// growth. Contents are unspecified; compile and run overwrite them.

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func resizeUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func resizeTerms(s []cTerm, n int) []cTerm {
	if cap(s) < n {
		return make([]cTerm, n)
	}
	return s[:n]
}

func resizeOccs(s [][]int, n int) [][]int {
	if cap(s) < n {
		out := make([][]int, n)
		copy(out, s[:cap(s)])
		s = out
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// bucketAdd places unmatched literal li into the bucket for its degree.
func (m *matcher) bucketAdd(li int) {
	d := m.deg[li]
	m.pos[li] = len(m.buckets[d])
	m.buckets[d] = append(m.buckets[d], li)
	if d > m.topDeg {
		m.topDeg = d
	}
}

// bucketRemove takes literal li out of its current bucket (swap-delete).
func (m *matcher) bucketRemove(li int) {
	d := m.deg[li]
	b := m.buckets[d]
	p := m.pos[li]
	last := len(b) - 1
	b[p] = b[last]
	m.pos[b[p]] = p
	m.buckets[d] = b[:last]
}

// run performs one search pass.
func (m *matcher) run() (bool, bool) {
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
		m.bound[v] = m.initial[v] != 0
	}
	if m.remaining == 0 {
		return true, false
	}
	return m.solve()
}

// pickLiteral chooses the next literal: one from the highest non-empty
// degree bucket, tie-breaking up to four entries by indexed candidate
// bound. Bucket maintenance makes this O(1) amortized per node.
func (m *matcher) pickLiteral() int {
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

// candidateBound returns the size of the cheapest index list usable for
// literal li (the extent size when nothing is bound).
func (m *matcher) candidateBound(li int) int {
	cl := &m.lits[li]
	best := cl.ext.n
	if cl.ext.arity != len(cl.terms) {
		return 0 // arity mismatch with the ground extent
	}
	for p, t := range cl.terms {
		var want int32
		if t.varID < 0 {
			want = t.val
		} else if m.bound[t.varID] {
			want = m.vals[t.varID]
		} else {
			continue
		}
		if n := cl.ext.postingLen(p, want); n < best {
			best = n
			if best == 0 {
				return 0
			}
		}
	}
	return best
}

func (m *matcher) bindVar(v int32, val int32) {
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

func (m *matcher) unbindVar(v int32) {
	m.vals[v] = 0
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

// over is the node-budget check loop's single gate: it reports true when
// the pass must stop, either because the budget is exhausted or because
// the context was cancelled (polled every 256 nodes, so an in-flight
// test notices a deadline within microseconds, not after its full
// budget). A cancelled search is reported upward as "exhausted", which
// the callers already treat as inconclusive/not-subsumed. The first time
// a probing pass gets here it has reached probeNodes, not its budget:
// escalate decides whether it goes on.
func (m *matcher) over() bool {
	if m.nodes >= m.maxNodes && (!m.probing || m.escalate()) {
		return true
	}
	return m.nodes&0xff == 0 && m.interrupted()
}

// interrupted polls the context, recording that it is done.
func (m *matcher) interrupted() bool {
	if m.done == nil {
		return false
	}
	select {
	case <-m.done:
		m.cancelled = true
		return true
	default:
		return false
	}
}

// escalate is the pass's one stop, at probeNodes: the refuter narrows
// the bound literals' value sets and either ends the test (true:
// refuted, or cancelled mid-refuter) or hands the pass the caller's
// budget to carry on under. The refuter reads the bound clause, the head
// bindings and, in a prefix test, the kept prefix's sets — never the
// search state — so the pass resumes exactly where it paused.
func (m *matcher) escalate() bool {
	m.probing = false
	m.maxNodes = m.budget
	if m.refutes() {
		m.how = byRefuter
		return true
	}
	return m.cancelled
}

// solve matches every unmatched literal. It returns (matched,
// budgetExhausted).
//
// It walks the chosen literal's rows in place: the cheapest posting list
// among its positions with a known value (its extent when there is none),
// each row checked, as it is reached, against the level's bindings. A row
// that fails the check is no node. A level with no compatible row returns
// before it touches the degree buckets.
func (m *matcher) solve() (bool, bool) {
	if m.remaining == 0 {
		return true, false
	}
	if m.over() {
		return false, true
	}

	li := m.pickLiteral()
	cl := &m.lits[li]
	if cl.ext.arity != len(cl.terms) {
		return false, false
	}
	var list []int32
	indexed := false
	for p, t := range cl.terms {
		var want int32
		if t.varID < 0 {
			want = t.val
		} else if m.bound[t.varID] {
			want = m.vals[t.varID]
		} else {
			continue
		}
		if l := cl.ext.posting(p, want); !indexed || len(l) < len(list) {
			list, indexed = l, true
			if len(l) == 0 {
				return false, false
			}
		}
	}
	n := cl.ext.n
	if indexed {
		n = len(list)
	}

	var boundBuf [8]int32
	entered, exhausted := false, false
	for k := 0; k < n && !exhausted; k++ {
		gi := int32(k)
		if indexed {
			gi = list[k]
		}
		row := cl.ext.row(gi)
		// The row check, against the bindings the level was entered with:
		// every row before this one unbound what it bound.
		ok := true
		for p, t := range cl.terms {
			if t.varID < 0 {
				ok = t.val == row[p]
			} else if m.bound[t.varID] {
				ok = m.vals[t.varID] == row[p]
			} else {
				ok = row[p] != noValue // a ground literal too short to have this slot
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		if !entered {
			entered = true
			m.bucketRemove(li)
			m.matched[li] = true
			m.remaining--
		}
		m.nodes++
		if m.over() {
			exhausted = true
			break
		}
		// Bind with undo. Repeated variables within the literal (p(X,X))
		// bind on first occurrence and re-verify equality on later ones:
		// the row check read the bindings made before the row.
		bound := boundBuf[:0]
		for p, t := range cl.terms {
			if t.varID < 0 {
				continue // constants checked above
			}
			if m.bound[t.varID] {
				if ok = m.vals[t.varID] == row[p]; !ok {
					break
				}
				continue
			}
			m.bindVar(t.varID, row[p])
			bound = append(bound, t.varID)
		}
		if ok {
			matched, ex := m.solve()
			if matched {
				return true, false // the pass is over: run resets its state
			}
			exhausted = ex
		}
		for _, v := range bound {
			m.unbindVar(v)
		}
	}
	if entered {
		m.matched[li] = false
		m.remaining++
		m.bucketAdd(li)
	}
	return false, exhausted
}
