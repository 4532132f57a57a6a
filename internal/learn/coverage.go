// Package learn implements the relational learning core: the sequential
// covering loop (Algorithm 1), bottom-up clause learning with the armg
// generalization operator and beam search (§2.3.2), and coverage testing
// against per-example ground bottom clauses via θ-subsumption (§5). Each
// example's ground bottom clause is its own sample, drawn from a seed
// derived from the example: a coverage verdict is a pure function of
// (options, clause, example), whoever computes it and in whatever order
// (DESIGN.md §19).
package learn

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
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
// engine; everything else the engine knows lives in one store of
// per-clause records (store.go, DESIGN.md §18).
//
// Every ground BC has one provenance (DESIGN.md §19): it is built on a
// clone of the engine's builder seeded from (seed, example), so it is a
// pure function of (options, example) — the same clause in the learner,
// a shard worker, a repair check and a server, whatever was built before
// it and whichever goroutine builds it.
//
// The verdict surface is four verbs: Covers and DefinitionCovers for one
// example, CountMany for a candidate frontier (through the transport when
// one is installed), and ResolveLocal, the in-process every-pair form
// transports fall back to. All of them reach the same resolver, which is
// safe for concurrent use and fans the (clause, example) tests out over a
// bounded worker pool (SetWorkers). Coverage testing is the dominant cost
// of learning (§5) and the tests are independent, so this is where
// parallel hardware pays off. Two rules keep results bit-identical to
// the sequential engine at every worker count:
//
//   - Verdicts are pure: a ground BC depends only on its example, and
//     each subsumption test owns its restart RNG (see the subsume
//     package's concurrency contract), so an outcome depends only on
//     (clause, example, options), never on which worker runs it.
//   - Ground BCs consumed by a resolve are prefetched sequentially, in
//     slice order — the order the sequential engine first touches them
//     — so the intern table's ids (the artifact's symbol order) and the
//     deterministic counters do not depend on the worker count either.
//
// Bounded execution: cancellation reaches into the running primitives —
// the subsumption node-budget loop and BC construction — so a deadline
// interrupts coverage mid-test, not at the next example boundary. A
// panic inside one example's test (a bug, or a fault injected via
// internal/faultpoint) is recovered and isolated to that (clause,
// example) pair, which deterministically scores "not covered": learning
// continues, the outcome is identical at every worker count, and the
// degradation is recorded on the engine's Report.
type CoverageEngine struct {
	builder *bottom.Builder
	subOpts subsume.Options
	workers int

	// transport, when non-nil, computes CountMany remotely (see
	// transport.go). Set before the engine runs (SetWorkers contract).
	transport CoverageTransport

	// in is the engine's intern table: predicate names and ground
	// constants mapped to dense int32 ids for the subsumption compiler.
	// Seeded deterministically from the task schema in NewCoverage,
	// grown by ground-BC compilation (sequential in the prefetch pass),
	// and installed on the builder so BC construction emits
	// pre-interned literals.
	in *logic.Interner

	// mu guards cache and the clause store (records, byPtr and every
	// record's maps). It is never held across a BC construction.
	mu    sync.RWMutex
	cache map[string]*GroundEntry
	// records is the verdict store, keyed by clause canonical key; byPtr
	// is its pointer fast path (see store.go).
	records map[string]*clauseRecord
	byPtr   map[*logic.Clause]*clauseRecord

	// carriedHits counts the distinct carried (clause, example) verdicts
	// this run consumed (see CarriedHits).
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
		records: make(map[string]*clauseRecord),
		byPtr:   make(map[*logic.Clause]*clauseRecord),
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

// NewGroundEntry pairs a ground bottom clause with its compiled index.
func NewGroundEntry(bc *logic.Clause, cg *subsume.CompiledGround) *GroundEntry {
	return &GroundEntry{bc: bc, cg: cg, size: bc.SizeBytes() + cg.SizeBytes()}
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

// Builder returns the engine's bottom-clause builder: the template every
// ground build is cloned from, and the builder the learner constructs
// its variabilized seed clauses on. Exposed so model capture and the
// config fingerprint can read its effective options; callers must
// respect the builder's single-goroutine contract.
func (ce *CoverageEngine) Builder() *bottom.Builder { return ce.builder }

// SubsumeOptions returns the engine's effective subsumption options (the
// values every coverage test runs under, after NewCoverage's defaulting).
func (ce *CoverageEngine) SubsumeOptions() subsume.Options { return ce.subOpts }

// Interner returns the engine's intern table, for serializing its
// symbols into a model artifact or warming a serving engine's table.
func (ce *CoverageEngine) Interner() *logic.Interner { return ce.in }

// CachedBCs returns the number of ground BCs currently cached.
func (ce *CoverageEngine) CachedBCs() int {
	ce.mu.RLock()
	defer ce.mu.RUnlock()
	return len(ce.cache)
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

// RecordEvent records a degradation event on the engine's report —
// exported so transports report shard retries, failovers, and losses
// into the same Result.Report the rest of the run uses.
func (ce *CoverageEngine) RecordEvent(e report.Event) { ce.rep.Load().Add(e) }

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

// isPanic reports whether err carries a recovered panic.
func isPanic(err error) bool {
	var pe *panicErr
	return errors.As(err, &pe)
}

// isCtxErr reports whether err is the context's cancellation or
// deadline, possibly wrapped.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// GroundBCCtx returns the cached ground bottom clause for the example,
// building it on a miss. ctx interrupts an in-flight construction; a
// panic during construction is converted to an error (the callers
// isolate it per example).
func (ce *CoverageEngine) GroundBCCtx(ctx context.Context, e Example) (*logic.Clause, error) {
	ent, err := ce.groundEntry(ctx, e.String(), e)
	if err != nil {
		return nil, err
	}
	return ent.bc, nil
}

// groundEntry returns the cached (BC, compiled index) pair for the
// example, building it on a miss. The build is a function of the example
// alone (BuildEntry), so it runs outside every lock and the result is
// the same no matter which goroutine gets there first; resolve and
// GeneralizeManyCtx prefetch sequentially, so concurrent builds of one
// example only happen for external callers of Covers — or when the
// prefetch itself was isolated.
func (ce *CoverageEngine) groundEntry(ctx context.Context, key string, e Example) (*GroundEntry, error) {
	ce.mu.RLock()
	ent, ok := ce.cache[key]
	ce.mu.RUnlock()
	if ok {
		ce.mc.Inc(metrics.CoverageBCCacheHits)
		return ent, nil
	}
	built, err := ce.BuildEntry(ctx, e)
	if err != nil {
		return nil, err
	}
	ce.mu.Lock()
	defer ce.mu.Unlock()
	// First build wins (concurrent builds of one example are equal), so
	// every caller sees one canonical entry.
	if prev, ok := ce.cache[key]; ok {
		ce.mc.Inc(metrics.CoverageBCRebuilt)
		return prev, nil
	}
	ce.cache[key] = built
	ce.mc.Inc(metrics.CoverageBCBuilt)
	ce.mc.Inc(metrics.CoverageCGBuilt)
	return built, nil
}

// buildBC is the one place a ground BC is made: on a clone of the
// engine's builder seeded from the example key, touching no engine
// state. A panic becomes an error.
func (ce *CoverageEngine) buildBC(ctx context.Context, key string, e Example) (bc *logic.Clause, err error) {
	defer recoverToErr(&err)
	return ce.builder.CloneSeeded(deriveSeed(ce.subOpts.Seed, key)).ConstructGroundCtx(ctx, e)
}

// BuildEntry builds the example's ground BC and compiles its subsumption
// index, WITHOUT entering it into the engine cache. The result is a pure
// function of (engine configuration, example) — independent of build
// order, concurrency, and process restarts — which is what lets an
// external cache (internal/serve's size-aware LRU) evict and rebuild
// entries freely without ever changing a verdict, and unbounded serving
// traffic never grows engine state. A panic becomes an error; an
// interrupted build is recorded as abandoned.
func (ce *CoverageEngine) BuildEntry(ctx context.Context, e Example) (ent *GroundEntry, err error) {
	defer recoverToErr(&err)
	key := e.String()
	g, err := ce.buildBC(ctx, key, e)
	if err != nil {
		if isCtxErr(err) {
			ce.RecordEvent(report.Event{Kind: report.BottomAbandoned, Site: "bottom.construct", Example: key})
		}
		return nil, fmt.Errorf("learn: ground BC for %v: %w", e, err)
	}
	return NewGroundEntry(g, subsume.CompileGround(ce.in, g)), nil
}

// deriveSeed maps (base seed, example key) to the RNG seed of the
// example's ground-BC build. The mapping is pinned by
// TestDeriveSeedStable: every ground BC, and so every golden theory and
// saved model's verdicts, depends on it, so changing it is a breaking
// change to learned-theory stability.
func deriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return base ^ int64(h.Sum64())
}

// settle produces one verdict: fetch the ground entry, bind the record's
// compiled clause to it and run subsume's one test procedure — the
// search, stopping once for the whole-clause refuter (DESIGN.md §20).
// It is the one place a test is counted, a panic (in the fetch or the
// test) is isolated to the pair as "not covered", and an exhausted node
// budget — a sound-negative answer, §5's approximation — is reported; a
// test the refuter answers is a complete "not covered" and reports
// nothing. A done ctx returns its error.
func (ce *CoverageEngine) settle(ctx context.Context, rec *clauseRecord, c *logic.Clause, key string, fetch func() (*GroundEntry, error)) (bool, error) {
	v, complete, err := func() (v, complete bool, err error) {
		defer recoverToErr(&err)
		ent, err := fetch()
		if err != nil {
			return false, false, err
		}
		ce.tests.Add(1)
		ce.mc.Inc(metrics.CoverageTests)
		ce.mc.Inc(metrics.CoverageCGHits)
		res := subsume.CheckClauseCtx(ctx, ce.compiled(rec, c), ent.cg, ce.subOpts)
		if res.Cancelled {
			// Cancelled without a done ctx: an injected subsume fault; treat
			// as an ordinary incomplete (sound-negative) answer.
			return false, false, ctx.Err()
		}
		return res.Subsumes, res.Complete, nil
	}()
	switch {
	case isPanic(err):
		// The failure belongs to this pair alone, and is a function of the
		// pair, not of scheduling: the same answer at every worker count.
		ce.RecordEvent(report.Event{Kind: report.PanicRecovered, Site: "coverage.test", Example: key, Detail: err.Error()})
		return false, nil
	case err != nil:
		return false, err
	case !complete:
		ce.RecordEvent(report.Event{Kind: report.SubsumeBudget, Site: "subsume.check", Example: key})
	}
	return v, nil
}

// covers answers one (clause, example) pair through the store: a stored
// verdict is returned as is, anything else is settled against the
// example's ground entry and stored — including an isolated failure,
// which is what keeps a panicking example from perturbing later
// decisions. The outcome of an interrupted test is never stored.
func (ce *CoverageEngine) covers(ctx context.Context, rec *clauseRecord, c *logic.Clause, e Example, key string) (bool, error) {
	if v, ok := ce.lookup(rec, key); ok {
		return v, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	v, err := ce.settle(ctx, rec, c, key, func() (*GroundEntry, error) {
		if faultpoint.Enabled() {
			// Per-example site, so injected worker failures are a
			// deterministic function of the example — the hit order across
			// pool workers is not. Anything injected but a cancellation is
			// isolated like a panic from the test proper.
			if err := faultpoint.Inject(ctx, "coverage.test:"+key); err != nil {
				if isCtxErr(err) {
					return nil, err
				}
				return nil, &panicErr{val: err}
			}
		}
		return ce.groundEntry(ctx, key, e)
	})
	if err != nil {
		return false, err
	}
	ce.memoize(rec, key, v)
	return v, nil
}

// Covers reports whether the clause covers the example. Results are
// stored per (canonical clause, example): the covering loop and beam
// scoring revisit the same pairs many times. Safe for concurrent use; a
// done ctx returns its error.
func (ce *CoverageEngine) Covers(ctx context.Context, c *logic.Clause, e Example) (bool, error) {
	return ce.covers(ctx, ce.record(c), c, e, e.String())
}

// DefinitionCovers reports whether any clause of the definition covers
// the example. Clauses are tried in order with early exit, matching the
// sequential engine; the per-clause verdicts are stored, so this stays
// cheap inside evaluation loops.
func (ce *CoverageEngine) DefinitionCovers(ctx context.Context, d *logic.Definition, e Example) (bool, error) {
	for _, c := range d.Clauses {
		if ok, err := ce.Covers(ctx, c, e); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// CheckDefinitionEntryCtx reports whether any clause of the definition
// subsumes the entry's ground BC, in clause order with early exit — the
// same semantics as DefinitionCovers over the same BC, for callers that
// manage ground entries and verdict memos of their own (internal/serve).
// Nothing is stored, but each clause is compiled once, in its record.
func (ce *CoverageEngine) CheckDefinitionEntryCtx(ctx context.Context, d *logic.Definition, ent *GroundEntry) (bool, error) {
	for _, c := range d.Clauses {
		ok, err := ce.settle(ctx, ce.record(c), c, "", func() (*GroundEntry, error) { return ent, nil })
		if ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// CountMany resolves a whole candidate frontier in one call:
// counts[i] = min(|{e : clauses[i] covers e}|, limit). Callers that only
// need a threshold decision ("does this clause cover more than k
// negatives?") pass a small limit and stop paying for subsumption tests
// whose outcome cannot change the decision; len(examples)+1 asks for the
// exact count. With a transport installed the frontier travels as one
// bulk call (the coordinator turns it into one RPC round per shard
// instead of one per candidate); without one it is resolved in process.
// Counts are identical at every worker count.
func (ce *CoverageEngine) CountMany(ctx context.Context, clauses []*logic.Clause, examples []Example, limit int) ([]int, error) {
	if len(clauses) == 0 {
		return nil, nil
	}
	limit = max(limit, 0)
	if faultpoint.Enabled() {
		if err := faultpoint.Inject(ctx, "coverage.count"); err != nil {
			return nil, err
		}
	}
	if ce.transport != nil {
		ns, err := ce.transport.CountMany(ctx, clauses, examples, limit)
		if err != nil {
			return nil, ce.abandoned(err, len(examples))
		}
		if len(ns) != len(clauses) {
			return nil, fmt.Errorf("learn: transport answered %d counts for %d clauses", len(ns), len(clauses))
		}
		return ns, nil
	}
	verdicts, err := ce.resolve(ctx, clauses, examples, limit)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(clauses))
	for i, row := range verdicts {
		for _, v := range row {
			if v {
				counts[i]++
			}
		}
		// Past the limit the pool stops testing, but workers already past
		// their check may each add one more; clamp so the value returned
		// is deterministic.
		counts[i] = min(counts[i], limit)
	}
	return counts, nil
}

// ResolveLocal resolves every (clause, example) pair in process —
// verdicts[i][j] is clauses[i] on examples[j] — bypassing any installed
// transport: it is what a shard worker answers a batch with and what the
// coordinator degrades to when a shard's workers are gone, so it must
// never route back through the transport.
func (ce *CoverageEngine) ResolveLocal(ctx context.Context, clauses []*logic.Clause, examples []Example) ([][]bool, error) {
	return ce.resolve(ctx, clauses, examples, math.MaxInt)
}

// resolve is the one loop that fans (clause, example) subsumption tests
// out: it fills the clauses × examples verdict matrix, from the store
// where it can. One worker runs the exact sequential path — clause by
// clause, example by example, every pair, ground BCs built as first
// touched. With more workers the examples' ground BCs are prefetched
// sequentially ONCE for the whole matrix, then the flattened pair space
// is strided across the pool; a clause that has reached limit covered
// examples stops being tested (its remaining cells stay false), which
// is purely a parallel-path saving — the sequential engine stays
// byte-identical to the pre-pool implementation.
func (ce *CoverageEngine) resolve(ctx context.Context, clauses []*logic.Clause, examples []Example, limit int) ([][]bool, error) {
	spanStart := ce.mc.StartSpan()
	defer ce.mc.EndSpan(metrics.SpanCoverageCount, spanStart)
	recs := make([]*clauseRecord, len(clauses))
	verdicts := make([][]bool, len(clauses))
	for i, c := range clauses {
		recs[i] = ce.record(c)
		verdicts[i] = make([]bool, len(examples))
	}
	keys := make([]string, len(examples))
	for j, e := range examples {
		keys[j] = e.String()
	}
	pairs := len(clauses) * len(examples)
	nw := max(min(ce.workers, pairs), 1)
	pooled := nw > 1
	if !pooled {
		limit = math.MaxInt // one worker scans every pair
	}
	// Prefetch missing ground BCs sequentially, in slice order: the BCs
	// themselves do not depend on it, but intern-table growth and the
	// built/rebuilt counters then match the sequential engine. A prefetch
	// isolated by a panic is skipped here — the pool worker's own fetch
	// re-derives the same deterministic failure.
	for j := 0; pooled && j < len(examples); j++ {
		if _, err := ce.groundEntry(ctx, keys[j], examples[j]); err != nil && !isPanic(err) {
			return nil, ce.abandoned(err, len(examples))
		}
	}

	var (
		hits = make([]atomic.Int64, len(clauses))
		errs = make([]error, nw)
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	run := func(w int) {
		defer wg.Done()
		if pooled && ce.mc.Enabled() {
			busyStart := time.Now()
			defer func() { ce.mc.WorkerBusy(w, time.Since(busyStart)) }()
		}
		for p := w; p < pairs && !stop.Load(); p += nw {
			i, j := p/len(examples), p%len(examples)
			if hits[i].Load() >= int64(limit) {
				continue
			}
			v, err := ce.covers(ctx, recs[i], clauses[i], examples[j], keys[j])
			if err != nil {
				errs[w] = err
				stop.Store(true)
				return
			}
			if v {
				verdicts[i][j] = true
				hits[i].Add(1)
			}
		}
	}
	wg.Add(nw)
	for w := 1; w < nw; w++ {
		go run(w)
	}
	run(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, ce.abandoned(err, len(examples))
		}
	}
	return verdicts, nil
}

// abandoned records a coverage-abandoned event when the count died to
// cancellation, and passes the error through either way.
func (ce *CoverageEngine) abandoned(err error, total int) error {
	if isCtxErr(err) {
		detail := fmt.Sprintf("count over %d examples interrupted", total)
		ce.RecordEvent(report.Event{Kind: report.CoverageAbandoned, Site: "coverage.count", Detail: detail})
	}
	return err
}
