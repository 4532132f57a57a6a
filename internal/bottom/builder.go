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
// Every sampled clause is a function of the builder's RNG. The coverage
// engine draws each example's ground BC as its own sample: it builds on
// CloneSeeded with a seed derived from the example, so a ground BC is a
// pure function of (options, example) and never of which other builds
// ran before it (DESIGN.md §19). Only the learner's variabilized seed
// clauses are built on a NewBuilder builder directly, in covering-loop
// order.
package bottom

import (
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
	// Clones share the collector: its methods are concurrency-safe even
	// though the builder itself is not.
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
// over one database and compiled bias. A Builder is not safe for
// concurrent use (it owns its random generator); worker pools must give
// each worker its own builder via Clone or CloneSeeded rather than
// sharing one.
type Builder struct {
	db   *db.Database
	bias *bias.Compiled
	plan *plan
	opts Options
	// done is the cancellation channel of the build in progress (nil
	// between builds). Builders are single-goroutine by contract (see
	// above), so holding per-build state here lets the samplers' deep
	// recursions poll cancellation without threading a ctx through
	// every signature.
	done <-chan struct{}
	// depthReached is the deepest Algorithm 2 iteration (or semi-join
	// tree level) that contributed tuples to the build in progress;
	// per-build state like done.
	depthReached int
	// snap is the database state the build in progress reads, pinned
	// once per build so a concurrent commit is seen whole or not at all.
	snap *db.Snapshot
	// olkenFreq, olkenMax and olkenPicks are olkenSample's buffers,
	// reused by every draw set of the builder's builds (olkenSample does
	// not recurse).
	olkenFreq  []int
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
	// src is the builder's random generator, math/rand's stream held by
	// value (source.go), read only through drawInt31n, drawFloat64 and
	// olkenSample's drain. It is the last field, so the part of a
	// builder the garbage collector scans for pointers ends before its
	// 4.9 KB of words.
	src source
}

// noteDepth raises the current build's reached-depth watermark.
func (b *Builder) noteDepth(d int) {
	if d > b.depthReached {
		b.depthReached = d
	}
}

// interrupted reports whether the current build's context is done.
func (b *Builder) interrupted() bool {
	if b.done == nil {
		return false
	}
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// NewBuilder returns a builder for the database and compiled bias. It
// compiles the bias's construction plan once; clones share it.
func NewBuilder(d *db.Database, c *bias.Compiled, opts Options) *Builder {
	opts = opts.normalized()
	b := &Builder{db: d, bias: c, plan: compilePlan(c), opts: opts}
	b.src.Seed(opts.Seed)
	return b
}

// Clone returns an independent builder sharing the (read-only) database,
// compiled bias and construction plan but owning a fresh random
// generator seeded from the options seed. This is the concurrency
// contract for worker pools: the database, bias and plan are safe to
// share, the generator is not, so each worker clones.
func (b *Builder) Clone() *Builder {
	return b.CloneSeeded(b.opts.Seed)
}

// CloneSeeded is Clone with an explicit seed, for pools that derive
// a deterministic per-worker or per-example seed so sampled clauses do
// not depend on goroutine scheduling. The generator lives in the
// builder, so a clone is one allocation.
func (b *Builder) CloneSeeded(seed int64) *Builder {
	c := &Builder{db: b.db, bias: b.bias, plan: b.plan, opts: b.opts}
	c.src.Seed(seed)
	return c
}

// Options returns the builder's normalized options.
func (b *Builder) Options() Options { return b.opts }

// Database returns the builder's (shared, read-only) database.
func (b *Builder) Database() *db.Database { return b.db }

// Construct builds the (variabilized) bottom clause for the example,
// which must be a ground literal of the target relation.
func (b *Builder) Construct(example logic.Literal) (*logic.Clause, error) {
	return b.ConstructCtx(context.Background(), example)
}

// ConstructCtx is Construct with cancellation: a done ctx interrupts the
// sampling traversal mid-build and returns the ctx's error. An
// interrupted build returns no clause — callers that want anytime
// behavior stop learning and keep what earlier builds produced.
func (b *Builder) ConstructCtx(ctx context.Context, example logic.Literal) (*logic.Clause, error) {
	return b.build(ctx, example, false)
}

// ConstructGround builds the ground bottom clause for the example, used
// by θ-subsumption coverage testing (§5): the same reachable tuples, with
// constants kept.
func (b *Builder) ConstructGround(example logic.Literal) (*logic.Clause, error) {
	return b.ConstructGroundCtx(context.Background(), example)
}

// ConstructGroundCtx is ConstructGround with cancellation.
func (b *Builder) ConstructGroundCtx(ctx context.Context, example logic.Literal) (*logic.Clause, error) {
	return b.build(ctx, example, true)
}

func (b *Builder) build(ctx context.Context, example logic.Literal, ground bool) (*logic.Clause, error) {
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
	b.done = ctx.Done()
	b.depthReached = 0
	b.snap = b.db.Snapshot()
	defer func() { b.done, b.snap = nil, nil }()
	mc := b.opts.Metrics
	spanStart := mc.StartSpan()

	st := b.plan.newState(b, ground)
	defer b.plan.release(st)
	st.seedHead(example)

	var tuples []foundTuple
	switch b.opts.Strategy {
	case Naive:
		tuples = b.naiveTuples(st, example)
	case Random:
		tuples = b.randomTuples(example, st.found)
	case Stratified:
		tuples = b.stratifiedTuples(example, st.found)
	default:
		return nil, fmt.Errorf("bottom: unknown strategy %v", b.opts.Strategy)
	}
	if b.opts.Strategy != Naive {
		// Random and stratified collect tuples first (they traverse
		// semi-join trees); literals are created afterwards in discovery
		// order so shared constants variabilize consistently.
		for _, ft := range tuples {
			if st.full() || b.interrupted() {
				break
			}
			st.addTuple(ft)
		}
		st.found = tuples
	}
	// A build cut short by cancellation must not hand back a truncated
	// clause as if it were the example's real BC: coverage results built
	// on it would differ from an uninterrupted run's.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bottom: construct %v interrupted: %w", example, err)
	}
	c := st.clause()
	if mc.Enabled() {
		mc.Inc(metrics.BottomConstructions)
		if ground {
			mc.Inc(metrics.BottomGroundConstructions)
		}
		mc.Add(metrics.BottomLiterals, int64(len(c.Body)))
		mc.Observe(metrics.HistBottomLiterals, int64(len(c.Body)))
		mc.SetMax(metrics.BottomMaxDepth, int64(b.depthReached))
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

// state accumulates the clause under construction: the constant→variable
// hash table of Algorithm 2, the body literals (deduplicated), and, for a
// naive build, the frontier of newly discovered constants. A state is
// taken from the plan's pool for one build and returned after it, so its
// maps and buffers serve every build of the builder and its clones; the
// clause's head, body and terms are the build's own.
type state struct {
	b      *Builder
	ground bool
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
	// before any is added.
	found []foundTuple
}

type frontierEntry struct {
	constant string
	fresh    int32 // offset of the fresh type set in state.freshWords
}

// newState takes a state from the pool for one build.
func (p *plan) newState(b *Builder, ground bool) *state {
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
	return st
}

// release empties the state and returns it to the pool. The clause it
// built keeps its body and terms: the state drops them, never reuses
// them.
func (p *plan) release(st *state) {
	clear(st.seen)
	clear(st.varOf)
	clear(st.known)
	st.b, st.head, st.body, st.arena, st.nextVar = nil, logic.Literal{}, nil, nil, 0
	st.lit, st.chain = st.lit[:0], st.chain[:0]
	st.knownWords, st.freshWords = st.knownWords[:0], st.freshWords[:0]
	st.frontier, st.spareFronts = st.frontier[:0], st.spareFronts[:0]
	clear(st.found)
	st.found = st.found[:0]
	p.states.Put(st)
}

func (st *state) full() bool { return len(st.body) >= st.b.opts.MaxLiterals }

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

// clause assembles the final bottom clause.
func (st *state) clause() *logic.Clause {
	return &logic.Clause{Head: st.head, Body: st.body}
}

// naiveTuples runs Algorithm 2 with naïve per-lookup sampling, feeding
// tuples into the state as it goes (so frontier constants drive the next
// iteration). A frontier entry is looked up in every attribute its fresh
// types reach, in the plan's lookups order.
func (b *Builder) naiveTuples(st *state, example logic.Literal) []foundTuple {
	for iter := 0; iter < b.opts.Depth && !st.full(); iter++ {
		frontier := st.frontier
		if len(frontier) == 0 {
			break
		}
		st.frontier = st.spareFronts[:0]
		b.noteDepth(iter + 1)
		for _, fe := range frontier {
			if st.full() || b.interrupted() {
				break
			}
			fresh := typeSet(st.freshWords[fe.fresh : int(fe.fresh)+b.plan.words])
			for _, lk := range b.plan.lookups {
				if !lk.types.meets(fresh) {
					continue
				}
				if st.full() {
					break
				}
				rel := b.snap.Relation(lk.ra.Relation)
				if rel == nil {
					continue
				}
				for _, t := range b.lookupSample(rel, lk.ra.Attr, fe.constant) {
					st.addTuple(foundTuple{rel: lk.ra.Relation, viaAttr: lk.ra.Attr, tuple: t})
					if st.full() {
						break
					}
				}
			}
		}
		st.spareFronts = frontier
	}
	return nil // naive adds tuples directly to the state
}

// sampleUniform returns a uniform sample of at most SampleSize tuples.
// A sample drawn from more lives in a buffer of the builder that the
// next draw overwrites.
func (b *Builder) sampleUniform(tuples []db.Tuple) []db.Tuple {
	if len(tuples) <= b.opts.SampleSize {
		return tuples
	}
	out := b.sample[:0]
	for _, i := range b.sampleIndices(len(tuples)) {
		out = append(out, tuples[i])
	}
	b.sample = out
	return out
}

// lookupSample is sampleUniform(rel.Lookup(attr, value)), which it equals
// draw for draw, without copying the matches: it reads the sampled ones
// into the builder's buffer, which the next draw overwrites.
func (b *Builder) lookupSample(rel *db.Relation, attr int, value string) []db.Tuple {
	m := rel.Frequency(attr, value)
	out := b.sample[:0]
	if m <= b.opts.SampleSize {
		for i := range m {
			out = append(out, rel.LookupAt(attr, value, i))
		}
	} else {
		for _, i := range b.sampleIndices(m) {
			out = append(out, rel.LookupAt(attr, value, i))
		}
	}
	b.sample = out
	return out
}

// sampleIndices returns SampleSize distinct indices below n, which must
// exceed it and fit an int32: the first SampleSize positions of a
// partial Fisher-Yates shuffle of 0..n-1, in a buffer of the builder
// that the next draw overwrites. Step i draws Intn(n-i).
func (b *Builder) sampleIndices(n int) []int {
	idx := b.sampleIdx[:0]
	for i := range n {
		idx = append(idx, i)
	}
	s := b.opts.SampleSize
	for i := 0; i < s; i++ {
		r := int32(n - i)
		j := i + int(drawInt31n(&b.src, r, int31nMax(r)))
		idx[i], idx[j] = idx[j], idx[i]
	}
	b.sampleIdx = idx
	return idx[:s]
}
