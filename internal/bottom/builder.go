// Package bottom implements bottom-clause (BC) construction, the data
// half of the paper's learner (§2.3.1, Algorithm 2), together with the
// three sampling strategies of §4: naïve per-relation sampling, random
// sampling over semi-joins (the extended-Olken scheme of §4.2), and
// stratified sampling (§4.3, Algorithm 4).
//
// A bottom clause for an example e is the most specific clause covering e
// relative to the database: its body holds one literal per database tuple
// reachable from e's constants through joins permitted by the language
// bias. Ground bottom clauses (constants kept) are used by coverage
// testing (§5).
//
// Every sampled clause is a function of the generator its build draws
// from. The coverage engine draws each example's ground BC as its own
// sample: Ground seeds the build's own generator with a seed derived from
// the example, so a ground BC is a pure function of (options, example)
// and never of which other builds ran before it (DESIGN.md §19). Only the
// learner's variabilized seed clauses draw from the builder's sequential
// stream, in covering-loop order.
package bottom

import (
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"

	"repro/internal/bias"
	"repro/internal/db"
	"repro/internal/faultpoint"
	"repro/internal/logic"
	"repro/internal/metrics"
)

// Strategy selects how tuples are sampled during BC construction.
type Strategy int

const (
	// Naive samples each relation's matching tuples uniformly and
	// independently (§4.1).
	Naive Strategy = iota
	// Random samples along semi-join paths with Olken-style acceptance,
	// weighting tuples by their join connectivity (§4.2).
	Random
	// Stratified samples every stratum (joinable relation, and distinct
	// value of each constant-able attribute) to cover rare patterns
	// (§4.3).
	Stratified
)

// String names the strategy as in Table 6.
func (s Strategy) String() string {
	switch s {
	case Naive:
		return "Naive"
	case Random:
		return "Random"
	case Stratified:
		return "Stratified"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy is the inverse of Strategy.String (case-insensitive),
// for deserializing model artifacts and CLI flags.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "naive", "":
		return Naive, nil
	case "random":
		return Random, nil
	case "stratified":
		return Stratified, nil
	}
	return Naive, fmt.Errorf("bottom: unknown strategy %q", s)
}

// Options configures BC construction.
type Options struct {
	// Strategy is the sampling strategy; the zero value is Naive.
	Strategy Strategy
	// Depth is the number of iterations d of Algorithm 2 (the maximum
	// join-path length from the example). <=0 defaults to 2.
	Depth int
	// SampleSize is s: the tuples kept per mode/lookup (naïve, random) or
	// per stratum (stratified). <=0 defaults to 20, the paper's setting.
	SampleSize int
	// MaxLiterals caps the BC body size as a resource guard; <=0 defaults
	// to 400 (the paper's BCs hold "hundreds of literals", §2.3.2).
	MaxLiterals int
	// Seed seeds the sampling RNG; 0 selects a fixed default.
	Seed int64
	// Metrics, when non-nil, receives per-build counters (constructions,
	// literals emitted, depth reached) and the bottom.construct span.
	// Concurrent builds share the collector, whose methods are
	// concurrency-safe.
	Metrics *metrics.Collector
}

func (o Options) normalized() Options {
	if o.Depth <= 0 {
		o.Depth = 2
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 20
	}
	if o.MaxLiterals <= 0 {
		o.MaxLiterals = 400
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Builder constructs bottom clauses for examples of one target relation
// over one database and compiled bias. It is a plan — the database, the
// bias's construction plan and the options, all read-only — and every
// build writes only a state of its own (its generator, sampler scratch
// and clause), so Ground is safe for concurrent use on one Builder.
//
// The one mutable field is src, the sequential stream, seeded with the
// options seed: Construct, ConstructCtx and ConstructGround draw from it
// in call order, as the learner's variabilized seed clauses do, and are
// not safe for concurrent use. It is last, so the part of a builder the
// garbage collector scans for pointers ends before its 4.9 KB of words.
type Builder struct {
	db   *db.Database
	bias *bias.Compiled
	plan *plan
	opts Options
	src  source
}

// NewBuilder returns a builder for the database and compiled bias. It
// compiles the bias's construction plan once.
func NewBuilder(d *db.Database, c *bias.Compiled, opts Options) *Builder {
	opts = opts.normalized()
	b := &Builder{db: d, bias: c, plan: compilePlan(c), opts: opts}
	b.src.Seed(opts.Seed)
	return b
}

// Options returns the builder's normalized options.
func (b *Builder) Options() Options { return b.opts }

// Database returns the builder's (shared, read-only) database.
func (b *Builder) Database() *db.Database { return b.db }

// Construct builds the (variabilized) bottom clause for the example,
// which must be a ground literal of the target relation, drawing from the
// builder's sequential stream.
func (b *Builder) Construct(example logic.Literal) (*logic.Clause, error) {
	return b.ConstructCtx(context.Background(), example)
}

// ConstructCtx is Construct with cancellation: a done ctx interrupts the
// sampling traversal mid-build and returns the ctx's error. An
// interrupted build returns no clause — callers that want anytime
// behavior stop learning and keep what earlier builds produced.
func (b *Builder) ConstructCtx(ctx context.Context, example logic.Literal) (*logic.Clause, error) {
	return b.plan.newState(b, false, &b.src).build(ctx, example)
}

// ConstructGround builds the ground bottom clause for the example from
// the builder's sequential stream: the same reachable tuples as
// Construct, with constants kept. Coverage testing (§5) grounds through
// Ground instead.
func (b *Builder) ConstructGround(example logic.Literal) (*logic.Clause, error) {
	return b.plan.newState(b, true, &b.src).build(context.Background(), example)
}

// Ground builds the example's ground bottom clause on a generator of the
// build's own, seeded with exactly seed: a pure function of (options,
// example, seed), whatever other builds run before it or beside it. It is
// safe for concurrent use, and it is how coverage testing (§5) grounds an
// example.
func (b *Builder) Ground(ctx context.Context, example logic.Literal, seed int64) (*logic.Clause, error) {
	st := b.plan.newState(b, true, nil)
	st.own.Seed(seed)
	return st.build(ctx, example)
}

// build runs one build on the state and returns the state to the pool.
func (st *state) build(ctx context.Context, example logic.Literal) (*logic.Clause, error) {
	b := st.b
	defer b.plan.release(st)
	if example.Predicate != b.bias.Target() {
		return nil, fmt.Errorf("bottom: example %v is not of target relation %s", example, b.bias.Target())
	}
	if !example.IsGround() {
		return nil, fmt.Errorf("bottom: example %v must be ground", example)
	}
	if faultpoint.Enabled() {
		if err := faultpoint.Inject(ctx, "bottom.construct"); err != nil {
			return nil, fmt.Errorf("bottom: construct %v: %w", example, err)
		}
		// Per-example site for faults that must be a deterministic
		// function of the example, not of build order.
		if err := faultpoint.Inject(ctx, "bottom.construct:"+example.String()); err != nil {
			return nil, fmt.Errorf("bottom: construct %v: %w", example, err)
		}
	}
	st.done = ctx.Done()
	st.snap = b.db.Snapshot()
	mc := b.opts.Metrics
	spanStart := mc.StartSpan()

	switch b.opts.Strategy {
	case Naive:
		st.seedHead(example)
		st.naiveTuples()
	case Random:
		st.randomTuples(example)
	case Stratified:
		st.stratifiedTuples(example)
	default:
		return nil, fmt.Errorf("bottom: unknown strategy %v", b.opts.Strategy)
	}
	if b.opts.Strategy != Naive {
		// Random and stratified collect tuples first (they traverse
		// semi-join trees, reading none of the clause); the head and then
		// the literals are created afterwards in discovery order so shared
		// constants variabilize consistently.
		if st.ground {
			st.assembleGround(example)
		} else {
			st.seedHead(example)
			for _, ft := range st.found {
				if st.full() || st.interrupted() {
					break
				}
				st.addTuple(ft)
			}
		}
	}
	// A build cut short by cancellation must not hand back a truncated
	// clause as if it were the example's real BC: coverage results built
	// on it would differ from an uninterrupted run's.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bottom: construct %v interrupted: %w", example, err)
	}
	c := &logic.Clause{Head: st.head, Body: st.body}
	if mc.Enabled() {
		mc.Inc(metrics.BottomConstructions)
		if st.ground {
			mc.Inc(metrics.BottomGroundConstructions)
		}
		mc.Add(metrics.BottomLiterals, int64(len(c.Body)))
		mc.Observe(metrics.HistBottomLiterals, int64(len(c.Body)))
		mc.SetMax(metrics.BottomMaxDepth, int64(st.depthReached))
		mc.EndSpan(metrics.SpanBottomConstruct, spanStart)
	}
	return c, nil
}

// foundTuple is a tuple discovered during construction, tagged with the
// attribute through which it was reached (the + position of the modes
// used to create its literals).
type foundTuple struct {
	rel     string
	viaAttr int
	tuple   db.Tuple
}

// state is one build: everything it writes. It accumulates the clause
// under construction — the constant→variable hash table of Algorithm 2,
// the body literals (deduplicated), and, for a naive build, the frontier
// of newly discovered constants — and holds the samplers' scratch and the
// generator the build draws from. A state is taken from the plan's pool
// for one build and returned after it, so its maps and buffers serve
// every build of the builder, concurrent ones included; the clause's
// head, body and terms are the build's own.
type state struct {
	b      *Builder
	ground bool
	// done is the build's cancellation channel, polled by the samplers'
	// deep recursions; snap the database state it reads, pinned once so a
	// concurrent commit is seen whole or not at all; depthReached the
	// deepest Algorithm 2 iteration (or semi-join tree level) that
	// contributed tuples.
	done         <-chan struct{}
	snap         *db.Snapshot
	depthReached int
	// tracksFrontier is set for a naive build, the only one whose
	// traversal reads the frontier: random and stratified builds collect
	// their tuples before adding any, so notes would be dead work.
	tracksFrontier bool

	head logic.Literal
	body []logic.Literal
	// arena is the unused tail of the block the clause's terms are cut
	// from; a full block is left to the clause and a larger one made.
	arena []logic.Term
	// lit holds the terms of the literal being built until emit knows
	// whether it is new.
	lit []logic.Term
	// seen maps a literal hash to 1 + the body index of the last literal
	// with that hash, and chain[i] to 1 + the index of the one before
	// body literal i (0 ends a chain): emit confirms a hash match by
	// comparing terms.
	seed  maphash.Seed
	seen  map[uint64]int32
	chain []int32

	varOf   map[string]string // constant -> variable name
	nextVar int

	// known maps each noted constant to the offset in knownWords of the
	// type set it was discovered under. frontier holds the (constant,
	// fresh types) pairs to process next iteration, each fresh set at its
	// offset in freshWords; spareFronts is the slice the previous iteration
	// read, recycled for the next one's entries.
	known       map[string]int32
	knownWords  []uint64
	freshWords  []uint64
	frontier    []frontierEntry
	spareFronts []frontierEntry
	// found holds a random or stratified build's tuples, collected
	// before any is added; picked, the indexes in found of a ground
	// build's literals.
	found  []foundTuple
	picked []int32

	// olkenRows, olkenMax and olkenPicks are olkenSample's buffers, reused
	// by every draw set (olkenSample does not recurse).
	olkenRows  [][]int
	olkenMax   []int32
	olkenPicks []olkenPick
	// rnd holds the random traversal's scratch, one level per tree
	// level.
	rnd []randLevel
	// strat holds the stratified traversal's scratch, one level per
	// recursion depth. sampleStrata lays a selection out stratum by
	// stratum in strata, from its sorted distinct values, each tuple's
	// stratum and the strata's offsets.
	strat        []stratLevel
	strataVals   []string
	strataOf     []int
	strataStarts []int
	strata       []db.Tuple
	// sampleIdx and sample are the uniform samplers' buffers, reused by
	// every draw (each sample is read before the next is drawn).
	sampleIdx []int
	sample    []db.Tuple
	// src is the generator the build draws from, only through drawInt31n,
	// drawFloat64 and olkenSample's drain: own for a Ground build, the
	// builder's sequential stream otherwise. own is held by value and
	// last, after every pointer.
	src *source
	own source
}

type frontierEntry struct {
	constant string
	fresh    int32 // offset of the fresh type set in state.freshWords
}

// newState takes a state from the pool for one build that draws from src,
// or from the state's own generator when src is nil.
func (p *plan) newState(b *Builder, ground bool, src *source) *state {
	st, _ := p.states.Get().(*state)
	if st == nil {
		st = &state{
			seed:  maphash.MakeSeed(),
			seen:  make(map[uint64]int32),
			varOf: make(map[string]string),
			known: make(map[string]int32),
		}
	}
	st.b, st.ground, st.tracksFrontier = b, ground, b.opts.Strategy == Naive
	st.src = cmp.Or(src, &st.own)
	return st
}

// release empties the state and returns it to the pool. Sampler scratch
// keeps its capacity, not what it points to, so a pooled state holds no
// tuple or postings of an older database version. The clause it built
// keeps its body and terms: the state drops them, never reuses them.
func (p *plan) release(st *state) {
	clear(st.seen)
	clear(st.varOf)
	clear(st.known)
	st.b, st.src, st.done, st.snap, st.depthReached = nil, nil, nil, nil, 0
	st.head, st.body, st.arena, st.nextVar = logic.Literal{}, nil, nil, 0
	st.lit, st.chain, st.picked = st.lit[:0], st.chain[:0], st.picked[:0]
	st.knownWords, st.freshWords = st.knownWords[:0], st.freshWords[:0]
	st.frontier, st.spareFronts = st.frontier[:0], st.spareFronts[:0]
	clear(st.found)
	st.found = st.found[:0]
	clear(st.olkenRows[:cap(st.olkenRows)])
	clear(st.sample[:cap(st.sample)])
	clear(st.strata[:cap(st.strata)])
	for i := range st.rnd {
		clear(st.rnd[i].sample[:cap(st.rnd[i].sample)])
	}
	for i := range st.strat {
		clear(st.strat[i].ir[:cap(st.strat[i].ir)])
	}
	p.states.Put(st)
}

func (st *state) full() bool { return len(st.body) >= st.b.opts.MaxLiterals }

// noteDepth raises the build's reached-depth watermark.
func (st *state) noteDepth(d int) { st.depthReached = max(st.depthReached, d) }

// interrupted reports whether the build's context is done.
func (st *state) interrupted() bool {
	select {
	case <-st.done:
		return true
	default:
		return false
	}
}

// variable returns the variable mapped to the constant, creating one if
// needed.
func (st *state) variable(c string) string {
	if v, ok := st.varOf[c]; ok {
		return v
	}
	v := fmt.Sprintf("V%d", st.nextVar)
	st.nextVar++
	st.varOf[c] = v
	return v
}

// cut returns n terms from the arena.
func (st *state) cut(n int) []logic.Term {
	if cap(st.arena)-len(st.arena) < n {
		st.arena = make([]logic.Term, 0, max(n, 2*cap(st.arena), 64))
	}
	k := len(st.arena)
	st.arena = st.arena[:k+n]
	return st.arena[k : k+n : k+n]
}

// noteConstant records that constant c carries the given types, queueing
// the types new to c on the frontier. It does nothing in a build that
// does not track the frontier.
func (st *state) noteConstant(c string, types typeSet) {
	if !st.tracksFrontier || types == nil {
		return
	}
	off, ok := st.known[c]
	if !ok {
		off = int32(len(st.knownWords))
		st.knownWords = append(st.knownWords, make([]uint64, len(types))...)
		st.known[c] = off
	}
	known := st.knownWords[off : int(off)+len(types)]
	fresh := int32(len(st.freshWords))
	any := false
	for i, w := range types {
		f := w &^ known[i]
		known[i] |= w
		any = any || f != 0
		st.freshWords = append(st.freshWords, f)
	}
	if !any {
		st.freshWords = st.freshWords[:fresh]
		return
	}
	st.frontier = append(st.frontier, frontierEntry{constant: c, fresh: fresh})
}

// seedHead installs the head literal and seeds the frontier with the
// example's constants under the target's attribute types.
func (st *state) seedHead(example logic.Literal) {
	terms := st.cut(len(example.Terms))
	for i, t := range example.Terms {
		if st.ground {
			terms[i] = t
		} else {
			terms[i] = logic.Var(st.variable(t.Name))
		}
		st.noteConstant(t.Name, st.b.plan.targetTypes(i))
	}
	st.head = logic.Literal{Predicate: example.Predicate, Terms: terms}
}

// addTuple converts a discovered tuple into one literal per applicable
// mode (modes of the relation with + at the discovery attribute),
// deduplicates, and queues the tuple's constants at variable positions.
// A ground build goes through addGroundTuple instead.
func (st *state) addTuple(ft foundTuple) {
	rp := st.b.plan.rels[ft.rel]
	if rp == nil {
		return
	}
	if st.ground {
		st.addGroundTuple(ft, rp)
		return
	}
	for _, m := range rp.modes[ft.viaAttr] {
		st.lit = st.lit[:0]
		for i, v := range ft.tuple {
			if m.Symbols[i] == bias.Constant {
				st.lit = append(st.lit, logic.Const(v))
				continue
			}
			st.lit = append(st.lit, logic.Var(st.variable(v)))
			st.noteConstant(v, rp.types[i])
		}
		if st.emit(ft.rel) && st.full() {
			return
		}
	}
}

// addGroundTuple is addTuple for a ground build. Every applicable mode
// yields the same literal — all its terms are the tuple's constants — so
// the literal is emitted once, and the tuple's constants at variable
// positions still join the frontier, so the traversal is the
// variabilized build's. The plan orders the notes exactly as a per-mode
// loop would make them take effect: the first mode's positions, the
// literal, then the positions later modes add.
func (st *state) addGroundTuple(ft foundTuple, rp *relPlan) {
	first := rp.firstNotes[ft.viaAttr]
	if len(first) == 0 {
		return
	}
	for _, i := range first {
		st.noteConstant(ft.tuple[i], rp.types[i])
	}
	st.lit = st.lit[:0]
	for _, v := range ft.tuple {
		st.lit = append(st.lit, logic.Const(v))
	}
	if st.emit(ft.rel) && st.full() {
		return
	}
	for _, i := range rp.laterNotes[ft.viaAttr] {
		st.noteConstant(ft.tuple[i], rp.types[i])
	}
}

// assembleGround is addGroundTuple over a random or stratified build's
// collected tuples (found), whose notes are dead work (no frontier), in two
// passes: the first picks, in order and up to the literal cap, the tuples
// that make a new literal — a ground tuple makes at most one, equal to an
// earlier one exactly when relation and values are — and the second cuts
// the head and the picked literals from a body and a term arena sized to
// them, so neither grows while the clause is assembled.
func (st *state) assembleGround(example logic.Literal) {
	tuples := st.found
	picked, terms := st.picked[:0], len(example.Terms)
	for i, ft := range tuples {
		if len(picked) >= st.b.opts.MaxLiterals || st.interrupted() {
			break
		}
		if rp := st.b.plan.rels[ft.rel]; rp == nil || len(rp.firstNotes[ft.viaAttr]) == 0 {
			continue
		}
		h := maphash.String(st.seed, ft.rel)
		for _, v := range ft.tuple {
			h = h*0x9e3779b97f4a7c15 + maphash.String(st.seed, v)
		}
		dup := false
		for j := st.seen[h]; j != 0 && !dup; j = st.chain[j-1] {
			p := tuples[picked[j-1]]
			dup = p.rel == ft.rel && slices.Equal(p.tuple, ft.tuple)
		}
		if dup {
			continue
		}
		st.chain = append(st.chain, st.seen[h])
		picked = append(picked, int32(i))
		st.seen[h] = int32(len(picked))
		terms += len(ft.tuple)
	}
	st.picked = picked
	st.body = make([]logic.Literal, 0, len(picked))
	st.arena = make([]logic.Term, 0, terms)
	st.seedHead(example)
	for _, i := range picked {
		ft := tuples[i]
		lit := st.cut(len(ft.tuple))
		for k, v := range ft.tuple {
			lit[k] = logic.Const(v)
		}
		st.body = append(st.body, logic.Literal{Predicate: ft.rel, Terms: lit})
	}
}

// emit appends the literal pred(st.lit) to the body unless an equal one
// is there, reporting whether it did.
func (st *state) emit(pred string) bool {
	h := maphash.String(st.seed, pred)
	for _, t := range st.lit {
		h = (h^uint64(t.Kind))*0x9e3779b97f4a7c15 + maphash.String(st.seed, t.Name)
	}
	for j := st.seen[h]; j != 0; j = st.chain[j-1] {
		if l := st.body[j-1]; l.Predicate == pred && slices.Equal(l.Terms, st.lit) {
			return false
		}
	}
	terms := st.cut(len(st.lit))
	copy(terms, st.lit)
	st.chain = append(st.chain, st.seen[h])
	st.body = append(st.body, logic.Literal{Predicate: pred, Terms: terms})
	st.seen[h] = int32(len(st.body))
	return true
}

// naiveTuples runs Algorithm 2 with naïve per-lookup sampling, feeding
// tuples into the state as it goes (so frontier constants drive the next
// iteration). A frontier entry is looked up in every attribute its fresh
// types reach, in the plan's lookups order.
func (st *state) naiveTuples() {
	p := st.b.plan
	for iter := 0; iter < st.b.opts.Depth && !st.full(); iter++ {
		frontier := st.frontier
		if len(frontier) == 0 {
			break
		}
		st.frontier = st.spareFronts[:0]
		st.noteDepth(iter + 1)
		for _, fe := range frontier {
			if st.full() || st.interrupted() {
				break
			}
			fresh := typeSet(st.freshWords[fe.fresh : int(fe.fresh)+p.words])
			for _, lk := range p.lookups {
				if !lk.types.meets(fresh) {
					continue
				}
				if st.full() {
					break
				}
				rel := st.snap.Relation(lk.ra.Relation)
				if rel == nil {
					continue
				}
				for _, t := range st.lookupSample(rel, lk.ra.Attr, fe.constant) {
					st.addTuple(foundTuple{rel: lk.ra.Relation, viaAttr: lk.ra.Attr, tuple: t})
					if st.full() {
						break
					}
				}
			}
		}
		st.spareFronts = frontier
	}
}

// sampleUniform returns a uniform sample of at most SampleSize tuples.
// A sample drawn from more lives in a buffer of the state that the next
// draw overwrites.
func (st *state) sampleUniform(tuples []db.Tuple) []db.Tuple {
	if len(tuples) <= st.b.opts.SampleSize {
		return tuples
	}
	out := st.sample[:0]
	for _, i := range st.sampleIndices(len(tuples)) {
		out = append(out, tuples[i])
	}
	st.sample = out
	return out
}

// lookupSample is sampleUniform(rel.Lookup(attr, value)), which it equals
// draw for draw, without copying the matches: it reads the sampled ones
// from the value's postings into the state's buffer, which the next draw
// overwrites.
func (st *state) lookupSample(rel *db.Relation, attr int, value string) []db.Tuple {
	tuples, rows := rel.Postings(attr, value)
	out := st.sample[:0]
	if len(rows) <= st.b.opts.SampleSize {
		for _, r := range rows {
			out = append(out, tuples[r])
		}
	} else {
		for _, i := range st.sampleIndices(len(rows)) {
			out = append(out, tuples[rows[i]])
		}
	}
	st.sample = out
	return out
}

// sampleIndices returns SampleSize distinct indices below n, which must
// exceed it and fit an int32: the first SampleSize positions of a
// partial Fisher-Yates shuffle of 0..n-1, in a buffer of the state that
// the next draw overwrites. Step i draws Intn(n-i).
func (st *state) sampleIndices(n int) []int {
	idx := st.sampleIdx[:0]
	for i := range n {
		idx = append(idx, i)
	}
	s := st.b.opts.SampleSize
	for i := 0; i < s; i++ {
		r := int32(n - i)
		j := i + int(drawInt31n(st.src, r, int31nMax(r)))
		idx[i], idx[j] = idx[j], idx[i]
	}
	st.sampleIdx = idx
	return idx[:s]
}
