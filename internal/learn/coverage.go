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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bottom"
	"repro/internal/faultpoint"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/pool"
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
// Every ground BC has one provenance (DESIGN.md §19): it is the engine
// builder's Ground build seeded from (seed, example), so it is a pure
// function of (options, example) — the same clause in the learner,
// a shard worker, a repair check and a server, whatever was built before
// it and whichever goroutine builds it.
//
// The verdict surface is four verbs: Covers and DefinitionCovers for one
// example, CountMany for a candidate frontier (its store misses through
// the transport when one is installed), and ResolveLocal, the in-process
// every-pair form transports fall back to. All of them reach the same
// resolver, the one place verdicts are read from and written to the
// store. It is safe for concurrent use and fans (clause, example) work
// out over a bounded worker pool (SetWorkers) through one pair pipeline.
// Coverage testing is the dominant cost of learning (§5) and the tests
// are independent, so this is where parallel hardware pays off. Three
// rules keep results, and the tests run to reach them, bit-identical at
// every worker count:
//
//   - Verdicts are pure: a ground BC depends only on its example, and a
//     subsumption test is a deterministic search over it (see the
//     subsume package's concurrency contract), so an outcome depends
//     only on (clause, example, options), never on which worker runs it.
//   - The pipeline prefetches the ground BCs a batch consumes
//     sequentially, in the order its jobs first touch them, so the
//     intern table's ids and the deterministic counters do not depend on
//     the worker count either.
//   - Every count is exact: a resolve tests and stores every pair it
//     misses, so the store and the coverage.* and subsume.* totals
//     depend only on the inputs.
//
// Bounded execution: cancellation reaches into the running primitives —
// the subsumption node-budget loop and BC construction — so a deadline
// interrupts coverage mid-test, not at the next example boundary. A
// panic in one pair's ground-BC fetch or work (a bug, or a fault injected
// via internal/faultpoint) is recovered and isolated to that (clause,
// example) pair, which deterministically gets its kind's negative
// answer — "not covered", or no generalization: learning continues, the
// outcome is identical at every worker count, and the degradation is
// recorded on the engine's Report.
type CoverageEngine struct {
	builder *bottom.Builder
	subOpts subsume.Options
	workers int

	// transport, when non-nil, computes CountMany's store misses
	// remotely (see transport.go). Set before the engine runs (SetWorkers
	// contract).
	transport CoverageTransport

	// in is the engine's intern table: predicate names and ground
	// constants mapped to dense int32 ids for the subsumption compiler.
	// Seeded deterministically from the task schema in NewCoverage,
	// grown by ground-BC compilation (sequential in the fetch pass).
	in *logic.Interner

	// mu guards cache and the clause store (records, byPtr and every
	// record's maps). It is never held across a BC construction.
	mu    sync.RWMutex
	cache map[string]*groundEntry
	// records is the verdict store, keyed by clause canonical key; byPtr
	// is its pointer fast path (see store.go).
	records map[string]*clauseRecord
	byPtr   map[*logic.Clause]*clauseRecord

	// carriedHits counts the distinct carried (clause, example) verdicts
	// this run consumed (see CarriedHits).
	carriedHits atomic.Int64

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
	// constants of ground BCs as subsume.CompileGround compiles them,
	// head then body in first-occurrence order. The builder emits plain
	// strings: CompileGround is the one place a ground BC is interned.
	in := logic.NewInterner()
	if d := builder.Database(); d != nil {
		if s := d.Schema(); s != nil {
			in.InternAll(s.Names()...)
		}
	}
	return &CoverageEngine{
		builder: builder,
		subOpts: subOpts,
		workers: 1,
		in:      in,
		cache:   make(map[string]*groundEntry),
		records: make(map[string]*clauseRecord),
		byPtr:   make(map[*logic.Clause]*clauseRecord),
	}
}

// groundEntry pairs a cached ground BC with its compiled subsumption
// index. The compiled form is a pure function of the BC (see
// subsume.CompileGround), and the two are stored together under one
// lock, so "BC cached ⇒ index cached" holds everywhere and parallelism
// cannot perturb either. Entries are immutable once built and safe to
// share across goroutines.
type groundEntry struct {
	bc *logic.Clause
	cg *subsume.CompiledGround
}

// SetWorkers bounds the coverage worker pool; n <= 0 selects
// runtime.GOMAXPROCS(0). The bound decides how many goroutines run the
// tests, never which tests run: every worker count settles the same
// pairs, builds the same ground BCs in the same order and reaches the
// same coverage.* and subsume.* totals.
func (ce *CoverageEngine) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	ce.workers = n
}

// Workers returns the configured pool bound.
func (ce *CoverageEngine) Workers() int { return ce.workers }

// Builder returns the engine's bottom-clause builder: the plan every
// ground build runs on, and whose sequential stream the learner draws
// its variabilized seed clauses from. Exposed so model capture and the
// config fingerprint can read its effective options; only the learner
// draws from the sequential stream.
func (ce *CoverageEngine) Builder() *bottom.Builder { return ce.builder }

// SubsumeOptions returns the engine's effective subsumption options (the
// values every coverage test runs under, after NewCoverage's defaulting).
func (ce *CoverageEngine) SubsumeOptions() subsume.Options { return ce.subOpts }

// Interner returns the engine's intern table, for the determinism
// suites that compare its symbol order across worker counts.
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
// counts and builds) to r; nil disables recording.
func (ce *CoverageEngine) SetReport(r *report.Report) { ce.rep.Store(r) }

// RecordEvent records a degradation event on the engine's report —
// exported so transports report shard retries, local fallbacks and losses
// into the same Result.Report the rest of the run uses.
func (ce *CoverageEngine) RecordEvent(e report.Event) { ce.rep.Load().Add(e) }

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
	ent, err := ce.entry(ctx, e.String(), e)
	if err != nil {
		return nil, err
	}
	return ent.bc, nil
}

// entry returns the cached (BC, compiled index) pair for the example,
// building it on a miss. The build is a function of the example alone
// (buildEntry), so it runs outside every lock and the result is the same
// no matter which goroutine gets there first; the pair pipeline fetches
// sequentially, so concurrent builds of one example only happen for
// concurrent external callers of the engine.
func (ce *CoverageEngine) entry(ctx context.Context, key string, e Example) (*groundEntry, error) {
	ce.mu.RLock()
	ent, ok := ce.cache[key]
	ce.mu.RUnlock()
	if ok {
		ce.mc.Inc(metrics.CoverageBCCacheHits)
		return ent, nil
	}
	built, err := ce.buildEntry(ctx, key, e)
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
	return built, nil
}

// buildBC is the one place a ground BC is made: the builder's Ground
// build seeded from the example key, touching no engine state. A panic
// becomes an error.
func (ce *CoverageEngine) buildBC(ctx context.Context, key string, e Example) (bc *logic.Clause, err error) {
	defer recoverToErr(&err)
	return ce.builder.Ground(ctx, e, deriveSeed(ce.subOpts.Seed, key))
}

// buildEntry builds the example's ground BC and compiles its subsumption
// index, without entering it into the engine cache: a pure function of
// (engine configuration, example), independent of build order,
// concurrency and process restarts. A panic becomes an error; an
// interrupted build is recorded as abandoned.
func (ce *CoverageEngine) buildEntry(ctx context.Context, key string, e Example) (ent *groundEntry, err error) {
	defer recoverToErr(&err)
	g, err := ce.buildBC(ctx, key, e)
	if err != nil {
		if isCtxErr(err) {
			ce.RecordEvent(report.Event{Kind: report.BottomAbandoned, Site: "bottom.construct", Example: key})
		}
		return nil, fmt.Errorf("learn: ground BC for %v: %w", e, err)
	}
	return &groundEntry{bc: g, cg: subsume.CompileGround(ce.in, g)}, nil
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

// settle produces one verdict under the failure rule (isolate): bind the
// record's compiled clause to the example's ground entry and run
// subsume's one test procedure — the search, stopping once for the
// whole-clause refuter (DESIGN.md §20). It is the one place a test is
// counted. An exhausted node budget is a sound-negative "not covered",
// §5's approximation working as designed; subsume counts it
// (subsume.budget_exhausted). A "not covered" whose search finished is
// marked vRefuted. A done ctx returns its error.
func (ce *CoverageEngine) settle(ctx context.Context, rec *clauseRecord, c *logic.Clause, key string, ent *groundEntry) (v verdict, err error) {
	err = ce.isolate("coverage.test", key, func() error {
		if faultpoint.Enabled() {
			// Per-test site: anything but a cancellation fails like a panic.
			if err := faultpoint.Inject(ctx, "coverage.test:"+key); err != nil {
				if !isCtxErr(err) {
					panic(err)
				}
				return err
			}
		}
		ce.mc.Inc(metrics.CoverageTests)
		res := subsume.CheckClauseCtx(ctx, ce.compiled(rec, c), ent.cg, ce.subOpts)
		switch {
		case res.Cancelled:
			// Cancelled without a done ctx: an injected subsume fault; treat
			// as an ordinary incomplete (sound-negative) answer.
			return ctx.Err()
		case res.Subsumes:
			v = vCovered
		case res.Complete:
			v = vRefuted
		}
		return nil
	})
	return v, err
}

// isolate is the failure rule of every (clause, example) pair: when the
// pair's work panics, or returns a recovered panic (its fetch's), it
// records one PanicRecovered naming the example at site and returns nil,
// and the work's output keeps its kind's negative answer ("not covered",
// no generalization), stored like a computed one. The failure is a
// function of the pair, not of scheduling. Other errors pass through.
func (ce *CoverageEngine) isolate(site, key string, work func() error) (err error) {
	defer func() {
		if isPanic(err) {
			ce.RecordEvent(report.Event{Kind: report.PanicRecovered, Site: site, Example: key, Detail: err.Error()})
			err = nil
		}
	}()
	defer recoverToErr(&err)
	return work()
}

// Covers reports whether the clause covers the example. The verdict is
// stored per (canonical clause, example), for repair's carried verdicts
// and queries after a run: within a run few pairs recur. Covers stays in
// process whatever transport is installed. Safe for concurrent use; a
// done ctx returns its error.
func (ce *CoverageEngine) Covers(ctx context.Context, c *logic.Clause, e Example) (bool, error) {
	verdicts, err := ce.resolve(ctx, nil, []*logic.Clause{c}, []Example{e})
	return err == nil && verdicts[0][0]&vCovered != 0, err
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

// CheckDefinitionCtx reports whether any clause of the definition covers
// the example — the semantics of DefinitionCovers, in clause order with
// early exit — while keeping nothing but the clauses' records: the
// example's ground entry is built for this call and dropped after it, no
// verdict is stored, and a head constant its ground BC's body does not
// hold is never interned (subsume.CompileGround). It is the serving
// path's one engine verb (internal/serve memoizes verdicts of its own),
// so unbounded traffic never grows engine state. A panic in the build is
// isolated to the example like a pair's (isolate): it is "not covered",
// and one PanicRecovered names it.
func (ce *CoverageEngine) CheckDefinitionCtx(ctx context.Context, d *logic.Definition, e Example) (bool, error) {
	key := e.String()
	var ent *groundEntry
	err := ce.isolate("bottom.construct", key, func() (err error) {
		ent, err = ce.buildEntry(ctx, key, e)
		return err
	})
	if ent == nil {
		return false, err
	}
	for _, c := range d.Clauses {
		v, err := ce.settle(ctx, ce.record(c), c, key, ent)
		if v&vCovered != 0 || err != nil {
			return v&vCovered != 0, err
		}
	}
	return false, nil
}

// CountMany resolves a whole candidate frontier in one call: counts[i]
// is the exact number of examples clauses[i] covers. With a transport
// installed the pairs the store cannot answer travel as one bulk call
// (the coordinator turns it into one RPC round per shard instead of one
// per candidate); without one they are resolved in process. Counts, and
// the tests run to reach them, are identical at every worker count.
func (ce *CoverageEngine) CountMany(ctx context.Context, clauses []*logic.Clause, examples []Example) ([]int, error) {
	if len(clauses) == 0 {
		return nil, nil
	}
	verdicts, err := ce.countRows(ctx, ce.transport, clauses, examples)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(clauses))
	for i, row := range verdicts {
		for _, v := range row {
			if v&vCovered != 0 {
				counts[i]++
			}
		}
	}
	return counts, nil
}

// countOpen is CountMany for one clause that also returns the examples
// its verdicts leave open: every example but those the clause is refuted
// on (vRefuted). No clause whose body contains c's under the same head
// covers an example outside open, which is what negative reduction
// counts its trials on (reduceClause). A transport's verdicts carry
// their completeness, so the same examples stay open either way.
func (ce *CoverageEngine) countOpen(ctx context.Context, c *logic.Clause, examples []Example) (n int, open []Example, err error) {
	verdicts, err := ce.countRows(ctx, ce.transport, []*logic.Clause{c}, examples)
	if err != nil {
		return 0, nil, err
	}
	for j, v := range verdicts[0] {
		if v&vCovered != 0 {
			n++
		}
		if v&vRefuted == 0 {
			open = append(open, examples[j])
		}
	}
	return n, open, nil
}

// countRows is the counting verbs' one resolve: the coverage.count fault
// site, the coverage.count span when t is nil (a transport times its own
// rounds), and the abandoned-count event.
func (ce *CoverageEngine) countRows(ctx context.Context, t CoverageTransport, clauses []*logic.Clause, examples []Example) ([][]verdict, error) {
	if faultpoint.Enabled() {
		if err := faultpoint.Inject(ctx, "coverage.count"); err != nil {
			return nil, err
		}
	}
	if t == nil {
		defer ce.mc.EndSpan(metrics.SpanCoverageCount, ce.mc.StartSpan())
	}
	verdicts, err := ce.resolve(ctx, t, clauses, examples)
	return verdicts, ce.abandoned(err, len(examples))
}

// ResolveLocal resolves every (clause, example) pair in process —
// verdicts[i][j] is clauses[i] on examples[j], refuted mark included —
// bypassing any installed transport: it is what a shard worker answers a
// batch with and what the coordinator degrades to when a shard's workers
// are gone, so it must never route back through the transport.
func (ce *CoverageEngine) ResolveLocal(ctx context.Context, clauses []*logic.Clause, examples []Example) ([][]Verdict, error) {
	defer ce.mc.EndSpan(metrics.SpanCoverageCount, ce.mc.StartSpan())
	verdicts, err := ce.resolve(ctx, nil, clauses, examples)
	if err != nil {
		return nil, ce.abandoned(err, len(examples))
	}
	out := make([][]Verdict, len(verdicts))
	for i, row := range verdicts {
		out[i] = make([]Verdict, len(row))
		for j, v := range row {
			out[i][j] = v.exported()
		}
	}
	return out, nil
}

// resolve is the one place verdicts are read and written for CountMany,
// countOpen, Covers, DefinitionCovers and ResolveLocal; verdicts[i][j] is
// clauses[i] on examples[j], as stored, without the carried mark. (1) One
// lookup pass answers every pair the store holds, consuming carried marks
// and counting memo hits. (2) The misses are computed: t gets the clauses
// that have a miss against the examples that have a miss, or, when t is
// nil, the pair pipeline tests each. (3) Every computed verdict is
// stored as it came, refuted mark included, isolated failures too, so a
// panicking example cannot perturb later decisions; when step 2 fails
// nothing is stored.
func (ce *CoverageEngine) resolve(ctx context.Context, t CoverageTransport, clauses []*logic.Clause, examples []Example) ([][]verdict, error) {
	n := len(examples)
	keys := make([]string, n)
	for j, e := range examples {
		keys[j] = e.String()
	}
	recs := make([]*clauseRecord, len(clauses))
	verdicts := make([][]verdict, len(clauses))
	var misses []int // pair i*n+j, clause-major: the order the tests first touch examples
	for i, c := range clauses {
		recs[i], verdicts[i] = ce.record(c), make([]verdict, n)
		for j, key := range keys {
			if v, ok := ce.lookup(recs[i], key); !ok {
				misses = append(misses, i*n+j)
			} else {
				verdicts[i][j] = v
			}
		}
	}
	if len(misses) == 0 {
		return verdicts, nil
	}
	if t == nil {
		err := ce.pipeline(ctx, "coverage.test", examples, keys, misses, func(k int, ent *groundEntry) (err error) {
			i, j := misses[k]/n, misses[k]%n
			verdicts[i][j], err = ce.settle(ctx, recs[i], clauses[i], keys[j], ent)
			return err
		})
		if err != nil {
			return nil, err
		}
	} else {
		row, col := make([]int, len(clauses)), make([]int, n) // block position + 1; 0 = no miss
		var cs []*logic.Clause
		for _, p := range misses { // clause-major, so cs keeps clause order
			if i := p / n; row[i] == 0 {
				cs = append(cs, clauses[i])
				row[i] = len(cs)
			}
			col[p%n] = 1
		}
		var exs []Example
		for j := range col {
			if col[j] > 0 {
				exs = append(exs, examples[j])
				col[j] = len(exs)
			}
		}
		got, err := t.Resolve(ctx, cs, exs)
		for a := 0; err == nil && a < len(cs); a++ {
			if len(got) != len(cs) || len(got[a]) != len(exs) {
				err = fmt.Errorf("learn: transport answered a %d-row block for %d clauses × %d examples", len(got), len(cs), len(exs))
			}
		}
		if err != nil {
			return nil, err
		}
		for _, p := range misses {
			verdicts[p/n][p%n] = stored(got[row[p/n]-1][col[p%n]-1])
		}
	}
	for _, p := range misses {
		ce.memoize(recs[p/n], keys[p%n], verdicts[p/n][p%n])
	}
	return verdicts, nil
}

// pipeline is the one way a batch of (clause, example) work runs — a
// resolve's misses, an armg round. Job k works on pairs[k] =
// i*len(examples)+j: clause i on examples[j], whose key is keys[j].
// Prefetch: each distinct example's ground entry is fetched once,
// sequentially, in first-touch order, so intern-table growth and every
// cache counter are fixed by the inputs. Fan-out: fanOut runs work(k,
// entry) for every job. Failure rule: a panic in a job's fetch or work
// is isolated to the job (isolate). A done ctx, or a fetch that fails
// without a panic, aborts the batch.
func (ce *CoverageEngine) pipeline(ctx context.Context, site string, examples []Example, keys []string, pairs []int, work func(k int, ent *groundEntry) error) error {
	// errs holds a fetch's recovered panic, isolated to each of the
	// example's jobs; a fetched example has an entry or an error.
	ents, errs := make([]*groundEntry, len(examples)), make([]error, len(examples))
	for _, p := range pairs {
		if j := p % len(examples); ents[j] == nil && errs[j] == nil {
			ents[j], errs[j] = ce.entry(ctx, keys[j], examples[j])
			if errs[j] != nil && !isPanic(errs[j]) {
				return errs[j]
			}
		}
	}
	return ce.fanOut(len(pairs), func(k int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		j := pairs[k] % len(examples)
		return ce.isolate(site, keys[j], func() error {
			if errs[j] != nil {
				return errs[j]
			}
			return work(k, ents[j])
		})
	})
}

// fanOut runs job(k) for every k in [0, n) through pool.Run on up to
// SetWorkers goroutines, the calling one included; the first error stops
// the hand-out and is returned. With more than one worker and metrics on,
// each worker's busy time is summed across its jobs and credited to the
// coverage.worker_busy_ns gauges once the pool is done.
func (ce *CoverageEngine) fanOut(n int, job func(k int) error) error {
	nw := max(min(ce.workers, n), 1)
	if nw == 1 || !ce.mc.Enabled() {
		return pool.Run(n, nw, func(_, k int) error { return job(k) })
	}
	busy := make([]time.Duration, nw)
	err := pool.Run(n, nw, func(w, k int) error {
		start := time.Now()
		err := job(k)
		busy[w] += time.Since(start)
		return err
	})
	for w, d := range busy {
		ce.mc.WorkerBusy(w, d)
	}
	return err
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
