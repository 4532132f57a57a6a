// Package learn implements the relational learning core: the sequential
// covering loop (Algorithm 1), bottom-up clause learning with the armg
// generalization operator and beam search (§2.3.2), and coverage testing
// against per-example ground bottom clauses via θ-subsumption (§5).
package learn

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bottom"
	"repro/internal/faultpoint"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/subsume"
)

// Example is a ground literal of the target relation.
type Example = logic.Literal

// CoverageEngine answers "does clause C cover example e" by testing
// whether C θ-subsumes e's ground bottom clause (§5). Ground BCs are
// built once per example with the same sampling strategy as the
// (variabilized) bottom clauses and cached for the lifetime of the
// engine.
//
// The engine is safe for concurrent use and fans Count/CountUpTo out
// over a bounded worker pool (SetWorkers). Coverage testing is the
// dominant cost of learning (§5) and the per-example checks are
// independent, so this is where parallel hardware pays off. Three rules
// keep results bit-identical to the sequential engine at every worker
// count:
//
//   - Subsumption tests are pure: each call owns its restart RNG
//     (see the subsume package's concurrency contract), so an outcome
//     depends only on (clause, ground BC, options), never on which
//     worker runs it.
//   - Ground BCs consumed by a Count are prefetched sequentially, in
//     slice order, through the one shared builder — exactly the order
//     and RNG consumption of the sequential engine.
//   - A worker that still misses the BC cache (possible only for
//     callers invoking Covers concurrently from outside the pool) never
//     touches the shared builder: it clones it with a seed derived from
//     the example, so the constructed BC is a deterministic function of
//     the example, not of goroutine scheduling.
//
// Bounded execution: every entry point has a Ctx variant. Cancellation
// reaches into the running primitives — the subsumption node-budget
// loop and BC construction — so a deadline interrupts coverage
// mid-test, not at the next example boundary. A panic inside one
// example's test (a bug, or a fault injected via internal/faultpoint)
// is recovered and isolated to that (clause, example) pair, which
// deterministically scores "not covered": learning continues, the
// outcome is identical at every worker count, and the degradation is
// recorded on the engine's Report.
type CoverageEngine struct {
	builder *bottom.Builder
	subOpts subsume.Options
	workers int

	// transport, when non-nil, computes Count/CountUpTo remotely (see
	// transport.go); pureGround forces every ground-BC miss through the
	// derived-seed clone path so BCs are order-independent pure
	// functions of the example — required by transports, optional
	// otherwise. Both are set before the engine runs (SetWorkers
	// contract).
	transport  CoverageTransport
	pureGround bool

	// in is the engine's intern table: predicate names and ground
	// constants mapped to dense int32 ids for the subsumption compiler.
	// Seeded deterministically from the task schema in NewCoverage,
	// grown by ground-BC compilation (sequential in the prefetch pass),
	// and installed on the builder so BC construction emits
	// pre-interned literals.
	in *logic.Interner

	// mu guards cache, results and seeds. buildMu serializes the shared
	// builder, whose RNG makes it unsafe for concurrent use (see
	// bottom.Builder.Clone); it is separate from mu so cached reads
	// never wait on a BC under construction.
	mu      sync.RWMutex
	buildMu sync.Mutex
	cache   map[string]*GroundEntry
	// results memoizes Covers outcomes by clause identity. Clauses are
	// immutable once built by the learner, so pointer identity is a safe
	// and allocation-free key. Isolated failures memoize false, which is
	// what keeps a panicking example from perturbing later decisions.
	results map[*logic.Clause]map[string]bool
	// seeds memoizes the per-example clone seed for the pooled BC-miss
	// fallback, so the example key is hashed once per example rather
	// than on every miss.
	seeds map[string]int64
	// pinned marks cache entries that must never be dropped: BCs
	// restored by a model replay (internal/serve) are order-dependent
	// products of the shared builder's RNG sequence and cannot be
	// rebuilt on demand, unlike pooled derived-seed BCs. Nil until
	// PinCached is called; guarded by mu.
	pinned map[string]bool

	// carried is the incremental-repair verdict store: verdicts from a
	// previous run keyed by (clause canonical key, example key),
	// installed by AdoptCarried before the engine runs and read-only
	// afterwards (no lock needed on reads). covers consults it on a
	// pointer-memo miss: a hit replays the previous run's verdict
	// without fetching the ground BC or running subsumption — the cost
	// incremental repair saves. ckeys memoizes clause canonical keys by
	// pointer (guarded by mu) so Key() is computed once per clause.
	carried map[string]map[string]bool
	ckeys   map[*logic.Clause]string
	// armg memoizes ARMG generalization outcomes by (rendered clause,
	// example key) — the operator is a pure function of the clause, the
	// example's ground BC, and the subsumption options, and its direct
	// subsumption tests are a large share of learning cost. The memo
	// serves repeat applications within a run (beam clauses recur across
	// rounds) and is carried across runs by incremental repair in pure
	// mode. The key is the clause's rendered form, NOT its canonical
	// key: the armg result reuses the input clause's variable names, so
	// a canonical-key hit on a renamed-but-equal clause would resurrect
	// another clause's variable naming and break the repair replay's
	// bit-identical-theory contract. cstrs memoizes rendered forms by
	// pointer. Guarded by mu. A nil value records "no generalization".
	armg  map[string]*logic.Clause
	cstrs map[*logic.Clause]string
	// carriedHits counts carried-verdict replays; a deterministic
	// function of (carried store, tested pairs), identical at every
	// worker count.
	carriedHits atomic.Int64

	// tests counts subsumption checks, for instrumentation.
	tests atomic.Int64

	// rep records degradation events (nil = don't record). Stored
	// atomically so SetReport need not race with in-flight workers.
	rep atomic.Pointer[report.Report]

	// mc receives the engine's metrics (nil = disabled). Set before the
	// engine is used, like SetWorkers; the collector's own methods are
	// concurrency-safe, so workers record through it freely.
	mc *metrics.Collector
}

// NewCoverage creates an engine over the builder. An unset subsumption
// budget defaults to 10000 nodes per test here — coverage runs thousands
// of tests per learned clause, and the common hard case (proving a
// negative is NOT covered) is where unbounded search goes to die (§5).
// That default only reaches callers that build an engine directly: the
// learner (learn.New) has already set its own, tighter 5000 in
// Options.normalized before it gets here. The engine starts sequential;
// call SetWorkers to enable the pool.
func NewCoverage(builder *bottom.Builder, subOpts subsume.Options) *CoverageEngine {
	if subOpts.MaxNodes <= 0 {
		subOpts.MaxNodes = 10000
	}
	// The intern table starts from the task schema (relation names in
	// schema order — deterministic for a given task) and grows with the
	// constants of compiled ground BCs. Installing it on the builder
	// makes BC construction emit pre-interned literals, so compilation
	// takes the read-locked fast path.
	in := logic.NewInterner()
	if d := builder.Database(); d != nil {
		if s := d.Schema(); s != nil {
			in.InternAll(s.Names()...)
		}
	}
	builder.SetInterner(in)
	return &CoverageEngine{
		builder: builder,
		subOpts: subOpts,
		workers: 1,
		in:      in,
		cache:   make(map[string]*GroundEntry),
		results: make(map[*logic.Clause]map[string]bool),
		seeds:   make(map[string]int64),
		armg:    make(map[string]*logic.Clause),
		cstrs:   make(map[*logic.Clause]string),
	}
}

// GroundEntry pairs a cached ground BC with its compiled subsumption
// index. The compiled form is a pure function of the BC (see
// subsume.CompileGround), and the two are stored together under one
// lock, so "BC cached ⇒ index cached" holds everywhere and parallelism
// cannot perturb either. Entries are immutable once built and safe to
// share across goroutines; the serving layer (internal/serve) holds
// them in its own size-aware cache, charged at SizeBytes.
type GroundEntry struct {
	bc   *logic.Clause
	cg   *subsume.CompiledGround
	size int64
}

func newGroundEntry(bc *logic.Clause, cg *subsume.CompiledGround) *GroundEntry {
	return &GroundEntry{bc: bc, cg: cg, size: bc.SizeBytes() + cg.SizeBytes()}
}

// NewGroundEntry wraps an externally built (bottom clause, compiled
// ground) pair as an entry, for callers that manage their own storage —
// notably the serving layer's cache tests.
func NewGroundEntry(bc *logic.Clause, cg *subsume.CompiledGround) *GroundEntry {
	return newGroundEntry(bc, cg)
}

// BC returns the entry's ground bottom clause.
func (g *GroundEntry) BC() *logic.Clause { return g.bc }

// Compiled returns the entry's compiled subsumption index.
func (g *GroundEntry) Compiled() *subsume.CompiledGround { return g.cg }

// SizeBytes is the entry's estimated heap footprint (BC plus compiled
// index), the cost serving caches charge against their byte budgets.
func (g *GroundEntry) SizeBytes() int64 { return g.size }

// SetWorkers bounds the coverage worker pool; n <= 0 selects
// runtime.GOMAXPROCS(0). At 1 worker the engine runs the exact
// sequential code path (same subsumption order, same test counts) as
// the pre-pool engine.
func (ce *CoverageEngine) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	ce.workers = n
}

// Workers returns the configured pool bound.
func (ce *CoverageEngine) Workers() int { return ce.workers }

// Builder returns the engine's shared bottom-clause builder. Exposed so
// model capture (internal/model via the facade) can read its options and
// build log; callers must respect the builder's single-goroutine
// contract.
func (ce *CoverageEngine) Builder() *bottom.Builder { return ce.builder }

// SubsumeOptions returns the engine's effective subsumption options (the
// values every coverage test runs under, after NewCoverage's defaulting).
func (ce *CoverageEngine) SubsumeOptions() subsume.Options { return ce.subOpts }

// Interner returns the engine's intern table, for serializing its
// symbols into a model artifact or warming a serving engine's table.
func (ce *CoverageEngine) Interner() *logic.Interner { return ce.in }

// PinCached marks every currently cached ground BC as pinned and returns
// how many entries were pinned. The serving engine pins the BCs restored
// by a training replay — their contents depend on the shared builder's
// RNG order and could not be rebuilt identically on demand — and reads
// them back through PinnedEntry; everything else it builds via
// BuildPooledEntry and bounds in its own byte-budgeted cache.
func (ce *CoverageEngine) PinCached() int {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	if ce.pinned == nil {
		ce.pinned = make(map[string]bool, len(ce.cache))
	}
	for k := range ce.cache {
		ce.pinned[k] = true
	}
	return len(ce.pinned)
}

// CachedBCs returns the number of ground BCs currently cached.
func (ce *CoverageEngine) CachedBCs() int {
	ce.mu.RLock()
	n := len(ce.cache)
	ce.mu.RUnlock()
	return n
}

// SetMetrics directs the engine's instrumentation to mc; nil disables
// it. Must be called before the engine runs tests (same contract as
// SetWorkers). The subsumption options pick up the collector too, so
// per-test node counts flow into it.
func (ce *CoverageEngine) SetMetrics(mc *metrics.Collector) {
	ce.mc = mc
	ce.subOpts.Metrics = mc
}

// SetReport directs degradation events (recovered panics, abandoned
// counts, exhausted subsumption budgets) to r; nil disables recording.
func (ce *CoverageEngine) SetReport(r *report.Report) { ce.rep.Store(r) }

// Report returns the engine's current degradation report (may be nil).
func (ce *CoverageEngine) Report() *report.Report { return ce.rep.Load() }

// TestCount returns how many subsumption checks the engine has run.
func (ce *CoverageEngine) TestCount() int { return int(ce.tests.Load()) }

// panicErr carries a recovered panic through an error return so the
// engine can isolate it to the failing example.
type panicErr struct{ val any }

func (p *panicErr) Error() string { return fmt.Sprintf("recovered panic: %v", p.val) }

// recoverToErr converts a panic in the deferring function into a
// *panicErr assigned to *errp. It must be deferred directly.
func recoverToErr(errp *error) {
	if r := recover(); r != nil {
		*errp = &panicErr{val: r}
	}
}

// isCtxErr reports whether err is the context's cancellation or
// deadline, possibly wrapped.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// GroundBC returns the cached ground bottom clause for the example,
// building it with the shared builder (serialized, so concurrent calls
// never construct the same BC twice nor interleave RNG draws).
func (ce *CoverageEngine) GroundBC(e Example) (*logic.Clause, error) {
	return ce.GroundBCCtx(context.Background(), e)
}

// GroundBCCtx is GroundBC with cancellation: ctx interrupts an in-flight
// construction. A panic during construction is converted to an error
// (the callers isolate it per example).
func (ce *CoverageEngine) GroundBCCtx(ctx context.Context, e Example) (*logic.Clause, error) {
	ent, err := ce.groundEntryCtx(ctx, e.String(), e)
	if err != nil {
		return nil, err
	}
	return ent.bc, nil
}

// groundEntryCtx returns the cached (BC, compiled index) pair for the
// example, building and compiling under buildMu on a miss — the
// sequential prefetch pass funnels through here, so intern-table growth
// and compilation order match the sequential engine exactly. In pure
// ground-BC mode every miss takes the derived-seed clone path instead:
// the shared builder's RNG stream is never consumed, so the BC is the
// same one any other process would build for this example.
func (ce *CoverageEngine) groundEntryCtx(ctx context.Context, key string, e Example) (ent *GroundEntry, err error) {
	if ce.pureGround {
		return ce.groundEntryPooled(ctx, key, e)
	}
	if ent, ok := ce.cachedEntry(key); ok {
		ce.mc.Inc(metrics.CoverageBCCacheHits)
		return ent, nil
	}
	ce.buildMu.Lock()
	defer ce.buildMu.Unlock()
	// Re-check: another goroutine may have built it while we waited.
	if ent, ok := ce.cachedEntry(key); ok {
		ce.mc.Inc(metrics.CoverageBCCacheHits)
		return ent, nil
	}
	defer recoverToErr(&err)
	g, err := ce.builder.ConstructGroundCtx(ctx, e)
	if err != nil {
		if isCtxErr(err) {
			ce.recordEvent(report.Event{Kind: report.BottomAbandoned, Site: "bottom.construct", Example: key})
		}
		return nil, fmt.Errorf("learn: ground BC for %v: %w", e, err)
	}
	ent = newGroundEntry(g, subsume.CompileGround(ce.in, g))
	ce.mu.Lock()
	ce.cache[key] = ent
	ce.mu.Unlock()
	ce.mc.Inc(metrics.CoverageBCBuilt)
	ce.mc.Inc(metrics.CoverageCGBuilt)
	return ent, nil
}

// groundEntryPooled is the pool workers' BC access: a cache hit is
// shared, a miss is built on a clone of the builder seeded from the
// example key, so the result is identical no matter which worker gets
// there first. (Count prefetches, so this miss path only fires for
// concurrent external Covers callers — or when the prefetch itself was
// isolated.)
func (ce *CoverageEngine) groundEntryPooled(ctx context.Context, key string, e Example) (ent *GroundEntry, err error) {
	if ent, ok := ce.cachedEntry(key); ok {
		ce.mc.Inc(metrics.CoverageBCCacheHits)
		return ent, nil
	}
	defer recoverToErr(&err)
	b := ce.builder.CloneSeeded(ce.seedFor(key))
	g, err := b.ConstructGroundCtx(ctx, e)
	if err != nil {
		if isCtxErr(err) {
			ce.recordEvent(report.Event{Kind: report.BottomAbandoned, Site: "bottom.construct", Example: key})
		}
		return nil, fmt.Errorf("learn: ground BC for %v: %w", e, err)
	}
	built := newGroundEntry(g, subsume.CompileGround(ce.in, g))
	ce.mu.Lock()
	// First build wins, so every caller sees one canonical entry.
	if prev, ok := ce.cache[key]; ok {
		ent = prev
		ce.mc.Inc(metrics.CoverageBCRebuilt)
	} else {
		ce.cache[key] = built
		ent = built
		ce.mc.Inc(metrics.CoverageBCBuilt)
		ce.mc.Inc(metrics.CoverageCGBuilt)
	}
	ce.mu.Unlock()
	return ent, nil
}

func (ce *CoverageEngine) cachedEntry(key string) (*GroundEntry, bool) {
	ce.mu.RLock()
	ent, ok := ce.cache[key]
	ce.mu.RUnlock()
	return ent, ok
}

// BuildPooledEntry constructs the example's ground BC on a builder clone
// seeded from the example key and compiles its subsumption index,
// WITHOUT entering it into the engine cache. The result is a pure
// function of (engine configuration, example) — independent of request
// order, concurrency, and process restarts — which is what lets an
// external cache (internal/serve's size-aware LRU) evict and rebuild
// entries freely without ever changing a verdict. The per-example seed
// is derived directly (not memoized in ce.seeds) so unbounded serving
// traffic cannot grow engine state.
func (ce *CoverageEngine) BuildPooledEntry(ctx context.Context, e Example) (ent *GroundEntry, err error) {
	defer recoverToErr(&err)
	key := e.String()
	b := ce.builder.CloneSeeded(deriveSeed(ce.subOpts.Seed, key))
	g, err := b.ConstructGroundCtx(ctx, e)
	if err != nil {
		if isCtxErr(err) {
			ce.recordEvent(report.Event{Kind: report.BottomAbandoned, Site: "bottom.construct", Example: key})
		}
		return nil, fmt.Errorf("learn: ground BC for %v: %w", e, err)
	}
	return newGroundEntry(g, subsume.CompileGround(ce.in, g)), nil
}

// PinnedEntry returns the pinned cache entry for the example key, if
// any. Pinned entries are the BCs a model replay restored (see
// PinCached): order-dependent products of the shared builder's RNG that
// cannot be rebuilt on demand, so the serving layer consults them before
// its own evictable cache.
func (ce *CoverageEngine) PinnedEntry(key string) (*GroundEntry, bool) {
	ce.mu.RLock()
	defer ce.mu.RUnlock()
	if !ce.pinned[key] {
		return nil, false
	}
	ent, ok := ce.cache[key]
	return ent, ok
}

// CheckEntryCtx tests whether the clause θ-subsumes the entry's ground
// BC, through the compiled index — the compile-once-check-many hot
// path. A panic inside the test is isolated to the (clause, entry) pair
// and deterministically answers "not covered", matching the covers()
// contract; an exhausted node budget answers sound-negative and records
// a degradation event.
func (ce *CoverageEngine) CheckEntryCtx(ctx context.Context, c *logic.Clause, ent *GroundEntry) (bool, error) {
	v, complete, err := func() (v, complete bool, err error) {
		defer recoverToErr(&err)
		ce.tests.Add(1)
		ce.mc.Inc(metrics.CoverageTests)
		ce.mc.Inc(metrics.CoverageCGHits)
		res := subsume.CheckCompiledCtx(ctx, c, ent.cg, ce.subOpts)
		if res.Cancelled {
			if cerr := ctx.Err(); cerr != nil {
				return false, false, cerr
			}
			return false, false, nil
		}
		return res.Subsumes, res.Complete, nil
	}()
	if err != nil {
		var pe *panicErr
		if errors.As(err, &pe) {
			ce.recordEvent(report.Event{
				Kind:   report.PanicRecovered,
				Site:   "coverage.test",
				Detail: pe.Error(),
			})
			return false, nil
		}
		return false, err
	}
	if !complete {
		ce.recordEvent(report.Event{Kind: report.SubsumeBudget, Site: "subsume.check"})
	}
	return v, nil
}

// CheckDefinitionEntryCtx reports whether any clause of the definition
// subsumes the entry's ground BC, in clause order with early exit —
// the same semantics as DefinitionCovers over the same BC.
func (ce *CoverageEngine) CheckDefinitionEntryCtx(ctx context.Context, d *logic.Definition, ent *GroundEntry) (bool, error) {
	for _, c := range d.Clauses {
		ok, err := ce.CheckEntryCtx(ctx, c, ent)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// seedFor returns the example's clone seed, deriving it once per
// example (memoized under mu) instead of re-hashing the key on every
// cache miss.
func (ce *CoverageEngine) seedFor(key string) int64 {
	ce.mu.RLock()
	s, ok := ce.seeds[key]
	ce.mu.RUnlock()
	if ok {
		return s
	}
	s = deriveSeed(ce.subOpts.Seed, key)
	ce.mu.Lock()
	ce.seeds[key] = s
	ce.mu.Unlock()
	return s
}

// deriveSeed maps (base seed, example key) to a deterministic RNG seed
// for order-independent BC construction off the pool's builder clones.
// The mapping is pinned by TestDeriveSeedStable: golden theories depend
// on it whenever the pooled fallback fires, so changing it is a
// breaking change to learned-theory stability.
func deriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return base ^ int64(h.Sum64())
}

// Covers reports whether the clause covers the example. Results are
// memoized per (clause, example): the covering loop and beam scoring
// revisit the same pairs many times. Safe for concurrent use.
func (ce *CoverageEngine) Covers(c *logic.Clause, e Example) (bool, error) {
	return ce.covers(context.Background(), c, e, false)
}

// CoversCtx is Covers with cancellation; a done ctx returns its error
// (the outcome of an interrupted test is never memoized).
func (ce *CoverageEngine) CoversCtx(ctx context.Context, c *logic.Clause, e Example) (bool, error) {
	return ce.covers(ctx, c, e, false)
}

// CoversPooledCtx is CoversCtx through the pooled BC path: a cache miss
// builds the example's ground BC on a clone of the builder seeded from
// the example (never the shared builder), so the verdict is a pure
// function of (engine configuration, example) — independent of request
// order, concurrency, and process restarts. This is the serving path
// (internal/serve): the shared builder's RNG position must stay exactly
// where a model replay left it, and concurrent requests must not
// serialize on BC construction.
func (ce *CoverageEngine) CoversPooledCtx(ctx context.Context, c *logic.Clause, e Example) (bool, error) {
	return ce.covers(ctx, c, e, true)
}

// DefinitionCoversPooledCtx is DefinitionCoversCtx through the pooled BC
// path; see CoversPooledCtx for the order-invariance contract.
func (ce *CoverageEngine) DefinitionCoversPooledCtx(ctx context.Context, d *logic.Definition, e Example) (bool, error) {
	for _, c := range d.Clauses {
		ok, err := ce.covers(ctx, c, e, true)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func (ce *CoverageEngine) covers(ctx context.Context, c *logic.Clause, e Example, pooled bool) (bool, error) {
	return ce.coversWith(ctx, c, nil, e, pooled)
}

// lazyClause compiles a candidate for subsumption at most once per
// count call, on the first example whose verdict is in no memo; the
// rest of the call's tests bind that one compiled form per example
// (subsume.CheckClauseCtx) instead of compiling the clause per test.
type lazyClause struct {
	once sync.Once
	cc   *subsume.CompiledClause
}

// coversWith is covers for one test of a count call; lc (nil outside
// count calls) is the call's shared compilation of c.
func (ce *CoverageEngine) coversWith(ctx context.Context, c *logic.Clause, lc *lazyClause, e Example, pooled bool) (bool, error) {
	key := e.String()
	ce.mu.RLock()
	v, ok := ce.results[c][key]
	ce.mu.RUnlock()
	if ok {
		ce.mc.Inc(metrics.CoverageMemoHits)
		return v, nil
	}
	if v, ok := ce.carriedVerdict(c, key); ok {
		ce.memoize(c, key, v)
		return v, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if faultpoint.Enabled() {
		// Per-example site, so injected worker failures are a
		// deterministic function of the example — the hit order across
		// pool workers is not. Injected panics are recovered here, the
		// same as panics from the test proper.
		err := func() (err error) {
			defer recoverToErr(&err)
			return faultpoint.Inject(ctx, "coverage.test:"+key)
		}()
		if err != nil {
			if isCtxErr(err) {
				return false, err
			}
			var pe *panicErr
			if !errors.As(err, &pe) {
				err = &panicErr{val: err}
			}
			return ce.isolate(c, key, err)
		}
	}
	v, complete, err := ce.testCovers(ctx, c, lc, e, key, pooled)
	if err != nil {
		var pe *panicErr
		if errors.As(err, &pe) {
			// Fault isolation: the failure belongs to this (clause,
			// example) pair alone. Score it "not covered" (deterministic
			// at every worker count — the panic is a function of the
			// pair, not of scheduling) and keep learning.
			return ce.isolate(c, key, pe)
		}
		return false, err
	}
	if !complete {
		ce.recordEvent(report.Event{Kind: report.SubsumeBudget, Site: "subsume.check", Example: key})
	}
	ce.memoize(c, key, v)
	return v, nil
}

// testCovers runs the actual test — compiled-ground fetch plus
// subsumption — with panics converted to *panicErr. complete reports
// whether the subsumption answer was exact (§5's approximation note).
// The ground side arrives pre-compiled from the engine's cache, and
// inside a count call so does the candidate (lc), so the per-test cost
// is binding the two and searching.
func (ce *CoverageEngine) testCovers(ctx context.Context, c *logic.Clause, lc *lazyClause, e Example, key string, pooled bool) (v, complete bool, err error) {
	defer recoverToErr(&err)
	var ent *GroundEntry
	if pooled {
		ent, err = ce.groundEntryPooled(ctx, key, e)
	} else {
		ent, err = ce.groundEntryCtx(ctx, key, e)
	}
	if err != nil {
		return false, false, err
	}
	ce.tests.Add(1)
	ce.mc.Inc(metrics.CoverageTests)
	ce.mc.Inc(metrics.CoverageCGHits)
	var res subsume.Result
	if lc != nil {
		lc.once.Do(func() { lc.cc = subsume.CompileClause(ce.in, c) })
		res = subsume.CheckClauseCtx(ctx, lc.cc, ent.cg, ce.subOpts)
	} else {
		res = subsume.CheckCompiledCtx(ctx, c, ent.cg, ce.subOpts)
	}
	if res.Cancelled {
		if cerr := ctx.Err(); cerr != nil {
			return false, false, cerr
		}
		// Cancelled without a done ctx: an injected subsume fault; treat
		// as an ordinary incomplete (sound-negative) answer.
		return false, false, nil
	}
	return res.Subsumes, res.Complete, nil
}

// isolate records a recovered per-example failure and memoizes "not
// covered" for the pair so every later visit (and every worker count)
// sees the same deterministic outcome.
func (ce *CoverageEngine) isolate(c *logic.Clause, key string, cause error) (bool, error) {
	ce.recordEvent(report.Event{
		Kind:    report.PanicRecovered,
		Site:    "coverage.test",
		Example: key,
		Detail:  cause.Error(),
	})
	ce.memoize(c, key, false)
	return false, nil
}

func (ce *CoverageEngine) memoize(c *logic.Clause, key string, v bool) {
	ce.mu.Lock()
	byEx := ce.results[c]
	if byEx == nil {
		byEx = make(map[string]bool)
		ce.results[c] = byEx
	}
	byEx[key] = v
	ce.mu.Unlock()
}

func (ce *CoverageEngine) recordEvent(e report.Event) { ce.rep.Load().Add(e) }

// Count returns how many of the examples the clause covers, fanning the
// subsumption tests across the worker pool. The result is exact and
// identical at every worker count.
func (ce *CoverageEngine) Count(c *logic.Clause, examples []Example) (int, error) {
	return ce.countBounded(context.Background(), c, examples, len(examples)+1)
}

// CountCtx is Count with cancellation: a done ctx abandons the count and
// returns its error (recorded as a coverage-abandoned degradation).
func (ce *CoverageEngine) CountCtx(ctx context.Context, c *logic.Clause, examples []Example) (int, error) {
	return ce.countBounded(ctx, c, examples, len(examples)+1)
}

// CountUpTo counts coverage but lets the pool cancel once the count
// reaches limit, returning min(exact count, limit). Callers that only
// need a threshold decision ("does this clause cover more than k
// negatives?") use it to stop paying for subsumption tests whose
// outcome cannot change the decision. With one worker it computes the
// full count — the sequential engine stays byte-identical to the
// pre-pool implementation, early exit being purely a parallel-path
// optimization.
func (ce *CoverageEngine) CountUpTo(c *logic.Clause, examples []Example, limit int) (int, error) {
	if limit < 0 {
		limit = 0
	}
	return ce.countBounded(context.Background(), c, examples, limit)
}

// CountUpToCtx is CountUpTo with cancellation.
func (ce *CoverageEngine) CountUpToCtx(ctx context.Context, c *logic.Clause, examples []Example, limit int) (int, error) {
	if limit < 0 {
		limit = 0
	}
	return ce.countBounded(ctx, c, examples, limit)
}

func (ce *CoverageEngine) countBounded(ctx context.Context, c *logic.Clause, examples []Example, limit int) (int, error) {
	if faultpoint.Enabled() {
		if err := faultpoint.Inject(ctx, "coverage.count"); err != nil {
			return 0, err
		}
	}
	if ce.transport != nil {
		n, err := ce.transport.CountUpTo(ctx, c, examples, limit)
		if err != nil {
			return 0, ce.abandoned(err, len(examples))
		}
		return n, nil
	}
	return ce.countLocal(ctx, c, examples, limit)
}

// countLocal is the in-process count: the sequential path at one
// worker, the prefetch-then-fan-out pool otherwise. It is the engine
// every transport degrades to, so it must never route back through the
// transport.
func (ce *CoverageEngine) countLocal(ctx context.Context, c *logic.Clause, examples []Example, limit int) (int, error) {
	spanStart := ce.mc.StartSpan()
	defer ce.mc.EndSpan(metrics.SpanCoverageCount, spanStart)
	nw := ce.workers
	if nw > len(examples) {
		nw = len(examples)
	}
	lc := new(lazyClause)
	if nw <= 1 {
		// Sequential path: exact legacy behavior, including the order of
		// BC construction and the number of subsumption tests.
		n := 0
		for _, e := range examples {
			ok, err := ce.coversWith(ctx, c, lc, e, false)
			if err != nil {
				return 0, ce.abandoned(err, len(examples))
			}
			if ok {
				n++
			}
		}
		if n > limit {
			n = limit
		}
		return n, nil
	}

	// Prefetch missing ground BCs sequentially, in slice order, through
	// the shared builder: bit-identical RNG consumption to the
	// sequential engine, so parallelism cannot perturb sampled BCs. A
	// prefetch isolated by a panic is skipped here — the per-example
	// pooled fallback re-derives the same deterministic failure.
	for _, e := range examples {
		if _, err := ce.GroundBCCtx(ctx, e); err != nil {
			var pe *panicErr
			if errors.As(err, &pe) {
				continue
			}
			return 0, ce.abandoned(err, len(examples))
		}
	}

	var (
		count    atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if ce.mc.Enabled() {
				busyStart := time.Now()
				defer func() { ce.mc.WorkerBusy(w, time.Since(busyStart)) }()
			}
			for i := w; i < len(examples); i += nw {
				if stop.Load() {
					return
				}
				ok, err := ce.coversWith(ctx, c, lc, examples[i], true)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					stop.Store(true)
					return
				}
				if ok && count.Add(1) >= int64(limit) {
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, ce.abandoned(firstErr, len(examples))
	}
	n := int(count.Load())
	if n > limit {
		// Workers already past their stop check may each add one more
		// covered example before observing the flag; clamp so the
		// returned value is deterministic.
		n = limit
	}
	return n, nil
}

// CountManyUpToCtx resolves a whole candidate frontier in one call:
// counts[i] = min(|{e : clauses[i] covers e}|, limit). With a transport
// installed the frontier travels as one bulk call (the coordinator turns
// it into one RPC round per shard instead of one per candidate); without
// one, the local path fans the clauses across the worker pool, so
// single-process learning gets candidate-level parallelism from the same
// batching seam. Counts are bit-identical to len(clauses) sequential
// CountUpToCtx calls at every worker count.
func (ce *CoverageEngine) CountManyUpToCtx(ctx context.Context, clauses []*logic.Clause, examples []Example, limit int) ([]int, error) {
	if len(clauses) == 0 {
		return nil, nil
	}
	if limit < 0 {
		limit = 0
	}
	if faultpoint.Enabled() {
		if err := faultpoint.Inject(ctx, "coverage.count"); err != nil {
			return nil, err
		}
	}
	if ce.transport != nil {
		ns, err := ce.transport.CountManyUpTo(ctx, clauses, examples, limit)
		if err != nil {
			return nil, ce.abandoned(err, len(examples))
		}
		if len(ns) != len(clauses) {
			return nil, fmt.Errorf("learn: transport answered %d counts for %d clauses", len(ns), len(clauses))
		}
		return ns, nil
	}
	return ce.countManyLocal(ctx, clauses, examples, limit)
}

// countManyLocal is the in-process frontier count. One worker runs the
// exact sequential path — clause by clause, example by example, the
// same order as N individual counts. With more workers the examples'
// ground BCs are prefetched sequentially ONCE for the whole frontier
// (the per-candidate path re-probed the cache per clause), then the
// clauses fan out across the pool; each clause scans its examples in
// order with early exit at limit, so the per-clause result is the same
// min(exact, limit) the sequential path computes.
func (ce *CoverageEngine) countManyLocal(ctx context.Context, clauses []*logic.Clause, examples []Example, limit int) ([]int, error) {
	if len(clauses) == 1 {
		n, err := ce.countLocal(ctx, clauses[0], examples, limit)
		if err != nil {
			return nil, err
		}
		return []int{n}, nil
	}
	spanStart := ce.mc.StartSpan()
	defer ce.mc.EndSpan(metrics.SpanCoverageCount, spanStart)
	counts := make([]int, len(clauses))
	nw := ce.workers
	if nw > len(clauses) {
		nw = len(clauses)
	}
	if nw <= 1 {
		for i, c := range clauses {
			n := 0
			lc := new(lazyClause)
			for _, e := range examples {
				ok, err := ce.coversWith(ctx, c, lc, e, false)
				if err != nil {
					return nil, ce.abandoned(err, len(examples))
				}
				if ok {
					n++
				}
			}
			if n > limit {
				n = limit
			}
			counts[i] = n
		}
		return counts, nil
	}

	// Sequential BC prefetch, shared across every clause of the batch
	// (see countLocal for why order matters). An isolated prefetch is
	// skipped — the pooled per-example fallback re-derives the same
	// deterministic failure.
	for _, e := range examples {
		if _, err := ce.GroundBCCtx(ctx, e); err != nil {
			var pe *panicErr
			if errors.As(err, &pe) {
				continue
			}
			return nil, ce.abandoned(err, len(examples))
		}
	}

	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if ce.mc.Enabled() {
				busyStart := time.Now()
				defer func() { ce.mc.WorkerBusy(w, time.Since(busyStart)) }()
			}
			for i := w; i < len(clauses); i += nw {
				if stop.Load() {
					return
				}
				n := 0
				lc := new(lazyClause)
				for _, e := range examples {
					if stop.Load() {
						return
					}
					ok, err := ce.coversWith(ctx, clauses[i], lc, e, true)
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						stop.Store(true)
						return
					}
					if ok {
						n++
						if n >= limit {
							break
						}
					}
				}
				if n > limit {
					n = limit // limit 0: the early break fires after the first hit
				}
				counts[i] = n
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, ce.abandoned(firstErr, len(examples))
	}
	return counts, nil
}

// abandoned records a coverage-abandoned event when the count died to
// cancellation, and passes the error through either way.
func (ce *CoverageEngine) abandoned(err error, total int) error {
	if isCtxErr(err) {
		ce.recordEvent(report.Event{
			Kind:   report.CoverageAbandoned,
			Site:   "coverage.count",
			Detail: fmt.Sprintf("count over %d examples interrupted", total),
		})
	}
	return err
}

// DefinitionCovers reports whether any clause of the definition covers
// the example. Clauses are tried in order with early exit, matching the
// sequential engine; the per-clause tests themselves are memoized, so
// this stays cheap inside evaluation loops.
func (ce *CoverageEngine) DefinitionCovers(d *logic.Definition, e Example) (bool, error) {
	return ce.DefinitionCoversCtx(context.Background(), d, e)
}

// DefinitionCoversCtx is DefinitionCovers with cancellation.
func (ce *CoverageEngine) DefinitionCoversCtx(ctx context.Context, d *logic.Definition, e Example) (bool, error) {
	for _, c := range d.Clauses {
		ok, err := ce.covers(ctx, c, e, false)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
