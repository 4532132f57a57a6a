// Package serve is the inference half of the system: it loads model
// artifacts (internal/model), rebinds them to their databases, and
// answers point and batch coverage queries with the verdict semantics
// the learner trained under.
//
// Binding a model is where the round-trip guarantee is enforced. The
// artifact's schema fingerprint is checked against the live database
// (stale model + changed schema fails loudly) and the training engine is
// reconstructed — same bias compilation, same bottom-clause options,
// same subsumption options. Binding builds no bottom clause: every
// ground BC, in training and here, is built on a per-example
// derived-seed builder clone (learn.CoverageEngine.BuildEntry, DESIGN.md
// §19), so a verdict is a pure function of (model, example) — equal to
// the learner's own for training, held-out and never-seen examples
// alike, invariant under request order, concurrency, and process
// restarts.
//
// Entries live in a size-aware, admission-controlled LRU
// (Options.CacheBytes) with singleflight builds — each entry's
// subsumption index is compiled once (subsume.CompileGround), so
// steady-state prediction is a check against a warm index — and
// definition-level verdicts are memoized per example; both layers only
// redistribute cost — purity means eviction and memoization can never
// change an answer (see cache.go and the differential suite).
//
// Multi-model tenancy: a Registry holds one tenant per model name, each
// with a versioned current Model swapped atomically (Swap). In-flight
// requests hold a reference to the version they resolved; a replaced
// version serves them to completion and then drains (Retire/Drain) —
// zero-downtime rollout. Tenants can shadow traffic against another
// bound version (compare verdicts, count mismatches) or A/B-split it
// deterministically by example hash, and each model carries its own
// concurrency budget so one hot model cannot starve the rest.
package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bottom"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/model"
)

// Example is a ground literal of a model's target relation.
type Example = logic.Literal

// parseGround parses a ground target literal from its string form, e.g.
// "advisedby(person_0001,person_0002)".
func parseGround(s string) (Example, error) { return model.ParseExample(s) }

// ErrNoModel reports a predict against a name the registry does not
// hold.
var ErrNoModel = errors.New("serve: no such model")

// ErrOverloaded reports a predict shed because the model's concurrency
// budget was exhausted. HTTP maps it to 503 with Retry-After.
var ErrOverloaded = errors.New("serve: model concurrency budget exhausted")

// isCtxErr reports whether err is a context cancellation or deadline,
// possibly wrapped.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Options configures model binding.
type Options struct {
	// Workers bounds per-request coverage parallelism; <=0 selects
	// GOMAXPROCS (the engine's convention). Batch fan-out is additionally
	// clamped to min(Workers, GOMAXPROCS, batch size) so oversubscription
	// never costs throughput.
	Workers int
	// CacheBytes is the model's byte budget for ground-BC entries
	// (bottom clause + compiled subsumption index, charged at their
	// estimated heap footprint); <=0 selects 64 MiB. Eviction is
	// size-aware LRU with doorkeeper admission; see cache.go.
	CacheBytes int64
	// MemoLimit bounds the per-model verdict memo (entries per
	// generation; total residency ≈ 2×); <=0 selects 65536.
	MemoLimit int
	// ModelConcurrency bounds concurrently served predict calls through
	// Registry.Predict for this model; excess calls are shed with
	// ErrOverloaded rather than queued, so one hot model cannot starve
	// the registry. <=0 means unlimited (the HTTP layer's global
	// semaphore still applies).
	ModelConcurrency int
	// Uncached disables the BC cache and verdict memo: every prediction
	// rebuilds its entry from scratch. This is the reference engine the
	// differential suite compares cached models against, and the honest
	// cold-path baseline in benchmarks.
	Uncached bool
	// Metrics, when non-nil, receives serve counters and engine
	// instrumentation.
	Metrics *metrics.Collector
}

func (o Options) normalized() Options {
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.MemoLimit <= 0 {
		o.MemoLimit = 65536
	}
	return o
}

// Model is one bound model version: an artifact, its database, a warmed
// coverage engine, and the serving caches. Safe for concurrent use.
type Model struct {
	name    string
	version int
	art     *model.Artifact
	def     *logic.Definition
	engine  *learn.CoverageEngine
	db      *db.Database
	mc      *metrics.Collector
	opts    Options

	// bc caches fresh-example ground entries under the byte budget; memo
	// caches definition-level verdicts. Both nil in Uncached mode.
	bc   *entryCache
	memo *verdictMemo
	// slots is the model's concurrency budget (nil = unlimited).
	slots chan struct{}

	// inflight counts requests holding this version (Registry.Acquire);
	// a retired version closes drained when the count reaches zero.
	inflight  atomic.Int64
	retired   atomic.Bool
	drained   chan struct{}
	drainOnce sync.Once
}

// Bind reconstructs a model's training engine over the database; see
// the package comment for what that buys. A schema fingerprint mismatch
// is a hard error: the database no longer has the shape the model was
// trained on. ctx is unused — binding does no work worth interrupting —
// and kept for the callers that pass one.
func Bind(_ context.Context, name string, art *model.Artifact, database *db.Database, opts Options) (*Model, error) {
	opts = opts.normalized()
	if err := art.Validate(); err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	if got := model.Fingerprint(database.Schema(), art.Target, art.TargetAttrs); got != art.SchemaFingerprint {
		return nil, fmt.Errorf(
			"serve: model %q is stale: artifact schema fingerprint %.12s… does not match database %.12s… (the schema changed since training; retrain or rebind the original data)",
			name, art.SchemaFingerprint, got)
	}
	def, err := art.Definition()
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	spec, err := art.BiasSpec()
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	compiled, err := spec.Compile(database.Schema(), art.Target, len(art.TargetAttrs))
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: bias does not compile against database: %w", name, err)
	}
	bopts, err := art.BottomOptions()
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	engine := learn.NewCoverage(bottom.NewBuilder(database, compiled, bopts), art.SubsumeOptions())
	engine.SetWorkers(opts.Workers)
	engine.SetMetrics(opts.Metrics)
	// Warm the intern table with the training table, in id order. Ids
	// never affect verdicts, but installing the table keeps the serving
	// engine's ids equal to training's, which makes artifacts and engine
	// dumps directly comparable when debugging.
	engine.Interner().InternAll(art.Symbols...)

	m := &Model{
		name:    name,
		version: 1,
		art:     art,
		def:     def,
		engine:  engine,
		db:      database,
		mc:      opts.Metrics,
		opts:    opts,
		drained: make(chan struct{}),
	}
	if !opts.Uncached {
		m.bc = newEntryCache(opts.CacheBytes, opts.Metrics, "serve.model."+name)
		m.memo = newVerdictMemo(opts.MemoLimit)
	}
	if opts.ModelConcurrency > 0 {
		m.slots = make(chan struct{}, opts.ModelConcurrency)
	}
	return m, nil
}

// Name returns the model's registry name.
func (m *Model) Name() string { return m.name }

// Version returns the model's registry version (1 for the first binding
// of a name, incremented by each Swap).
func (m *Model) Version() int { return m.version }

// Artifact returns the bound artifact (read-only by convention).
func (m *Model) Artifact() *model.Artifact { return m.art }

// DataVersion returns the ingest data version the bound artifact was
// learned or repaired against (0 for artifacts from static loads), so
// operators can tell how far a served model lags live data.
func (m *Model) DataVersion() uint64 { return m.art.DataVersion }

// Definition returns the learned theory.
func (m *Model) Definition() *logic.Definition { return m.def }

// CachedBCs reports how many ground-BC entries the model holds in the
// serving LRU.
func (m *Model) CachedBCs() int {
	if m.bc == nil {
		return 0
	}
	return m.bc.len()
}

// CacheBytesUsed reports the serving LRU's current byte occupancy.
func (m *Model) CacheBytesUsed() int64 {
	if m.bc == nil {
		return 0
	}
	return m.bc.bytes()
}

// InFlight reports how many acquired requests currently hold this
// version.
func (m *Model) InFlight() int { return int(m.inflight.Load()) }

// Retired reports whether this version has been replaced by a Swap.
func (m *Model) Retired() bool { return m.retired.Load() }

// ref/unref count requests holding this version. unref closes the drain
// gate when a retired version's last request finishes.
func (m *Model) ref() { m.inflight.Add(1) }

func (m *Model) unref() {
	if m.inflight.Add(-1) == 0 && m.retired.Load() {
		m.closeDrained()
	}
}

// Retire marks the version replaced: it serves its in-flight requests
// to completion but Registry.Acquire routes new ones to the successor.
func (m *Model) Retire() {
	m.retired.Store(true)
	if m.inflight.Load() == 0 {
		m.closeDrained()
	}
}

func (m *Model) closeDrained() { m.drainOnce.Do(func() { close(m.drained) }) }

// Drained returns a channel closed when the version is retired and its
// last in-flight request has finished.
func (m *Model) Drained() <-chan struct{} { return m.drained }

// Drain blocks until the version has drained (see Drained) or ctx ends.
func (m *Model) Drain(ctx context.Context) error {
	select {
	case <-m.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tryAcquireSlot claims a concurrency-budget slot without queueing;
// false means the caller should shed.
func (m *Model) tryAcquireSlot() bool {
	if m.slots == nil {
		return true
	}
	select {
	case m.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (m *Model) releaseSlot() {
	if m.slots != nil {
		<-m.slots
	}
}

// checkExample validates that e queries this model's target relation.
func (m *Model) checkExample(e logic.Literal) error {
	if e.Predicate != m.art.Target {
		return fmt.Errorf("serve: model %q classifies %s/%d, not %s/%d",
			m.name, m.art.Target, len(m.art.TargetAttrs), e.Predicate, e.Arity())
	}
	if e.Arity() != len(m.art.TargetAttrs) {
		return fmt.Errorf("serve: model %q: %s takes %d attributes (%s), got %d",
			m.name, m.art.Target, len(m.art.TargetAttrs), strings.Join(m.art.TargetAttrs, ","), e.Arity())
	}
	if !e.IsGround() {
		return fmt.Errorf("serve: example %s is not ground", e.String())
	}
	return nil
}

// predictOne is the serving hot path: verdict memo, then the entry
// ladder (size-aware LRU with singleflight → derived-seed build), then
// the compiled subsumption check. Every layer only redistributes cost;
// the verdict is a pure function of (model, example).
func (m *Model) predictOne(ctx context.Context, e Example) (bool, error) {
	key := e.String()
	if m.memo != nil {
		if v, ok := m.memo.get(key); ok {
			m.mc.Inc(metrics.ServeMemoHits)
			return v, nil
		}
	}
	ent, err := m.entryFor(ctx, key, e)
	if err != nil {
		return false, err
	}
	v, err := m.engine.CheckDefinitionEntryCtx(ctx, m.def, ent)
	if err != nil {
		return false, err
	}
	if m.memo != nil {
		m.memo.put(key, v)
	}
	return v, nil
}

// entryFor resolves the example's ground entry through the
// LRU/singleflight path, or by a direct build when uncached.
func (m *Model) entryFor(ctx context.Context, key string, e Example) (*learn.GroundEntry, error) {
	if m.bc == nil {
		return m.engine.BuildEntry(ctx, e)
	}
	return m.bc.get(ctx, key, func() (*learn.GroundEntry, error) {
		return m.engine.BuildEntry(ctx, e)
	})
}

// PredictExample reports whether the learned theory covers the ground
// example, with the training verdict semantics (see the package
// comment).
func (m *Model) PredictExample(ctx context.Context, e logic.Literal) (bool, error) {
	if err := m.checkExample(e); err != nil {
		return false, err
	}
	span := m.mc.StartSpan()
	covered, err := m.predictOne(ctx, e)
	m.mc.EndSpan(metrics.SpanServePredict, span)
	if err != nil {
		return false, err
	}
	m.mc.Add(metrics.ServePredictions, 1)
	if covered {
		m.mc.Inc(metrics.ServeCovered)
	}
	return covered, nil
}

// PredictTuple classifies a tuple of the target relation given as
// attribute values in schema order.
func (m *Model) PredictTuple(ctx context.Context, values []string) (bool, error) {
	return m.PredictExample(ctx, m.TupleExample(values))
}

// TupleExample builds the ground target literal for a tuple's attribute
// values. (Arity errors surface at predict time via checkExample.)
func (m *Model) TupleExample(values []string) logic.Literal {
	terms := make([]logic.Term, len(values))
	for i, v := range values {
		terms[i] = logic.Const(v)
	}
	return logic.NewLiteral(m.art.Target, terms...)
}

// PredictBatch classifies every example, fanning the independent
// coverage tests across min(Workers, GOMAXPROCS, batch size) goroutines
// with strided assignment — clamping to the hardware means
// oversubscription never costs throughput on small hosts. Verdicts are
// positionally aligned with the input and identical at every worker
// count (each test is a pure function of the example).
func (m *Model) PredictBatch(ctx context.Context, examples []logic.Literal) ([]bool, error) {
	for _, e := range examples {
		if err := m.checkExample(e); err != nil {
			return nil, err
		}
	}
	span := m.mc.StartSpan()
	defer m.mc.EndSpan(metrics.SpanServePredict, span)
	m.mc.Observe(metrics.HistServeBatch, int64(len(examples)))

	out := make([]bool, len(examples))
	nw := m.engine.Workers()
	if p := runtime.GOMAXPROCS(0); nw > p {
		nw = p
	}
	if nw > len(examples) {
		nw = len(examples)
	}
	var err error
	if nw <= 1 {
		for i, e := range examples {
			out[i], err = m.predictOne(ctx, e)
			if err != nil {
				return nil, err
			}
		}
	} else {
		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
		)
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(examples); i += nw {
					ok, cerr := m.predictOne(ctx, examples[i])
					if cerr != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = cerr
						}
						errMu.Unlock()
						return
					}
					out[i] = ok
				}
			}(w)
		}
		wg.Wait()
		err = firstErr
	}
	if err != nil {
		return nil, err
	}
	covered := 0
	for _, ok := range out {
		if ok {
			covered++
		}
	}
	m.mc.Add(metrics.ServePredictions, int64(len(examples)))
	m.mc.Add(metrics.ServeCovered, int64(covered))
	return out, nil
}

// ShadowMode selects how a tenant's shadow route treats traffic.
type ShadowMode int

const (
	// ShadowCompare serves every prediction from the primary and replays
	// a deterministic Percent of examples against the shadow version,
	// counting verdict mismatches (serve.shadow_mismatches). Shadow
	// errors and sheds never affect the primary response.
	ShadowCompare ShadowMode = iota
	// ShadowSplit A/B-routes: examples whose key hashes below Percent are
	// served BY the shadow version, the rest by the primary. Routing is a
	// pure function of the example, so repeated requests are sticky.
	ShadowSplit
)

// ShadowRoute directs a tenant's traffic at a second bound version.
type ShadowRoute struct {
	Model   *Model
	Mode    ShadowMode
	Percent int // 0..100; 0 means 100 for ShadowCompare, no-op for ShadowSplit
}

func (sr *ShadowRoute) normalized() *ShadowRoute {
	cp := *sr
	if cp.Percent <= 0 {
		if cp.Mode == ShadowCompare {
			cp.Percent = 100
		} else {
			cp.Percent = 0
		}
	}
	if cp.Percent > 100 {
		cp.Percent = 100
	}
	return &cp
}

// tenant is one model name's serving state: the current version plus an
// optional shadow route. cur is swapped atomically; swapMu serializes
// writers (version numbering).
type tenant struct {
	name   string
	swapMu sync.Mutex
	cur    atomic.Pointer[Model]
	shadow atomic.Pointer[ShadowRoute]
}

// acquire returns the tenant's current model with a reference held. The
// re-check loop closes the race with Swap: after Swap(m2) returns, no
// new reference on the old version can be taken, which is what makes
// Drain's "no new work" guarantee sound.
func (t *tenant) acquire() (*Model, func()) {
	for {
		m := t.cur.Load()
		m.ref()
		if t.cur.Load() == m {
			return m, m.unref
		}
		m.unref()
	}
}

// Registry holds the bound models of a serving process, keyed by name.
// Safe for concurrent use; reads never block on swaps.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]*tenant
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]*tenant)}
}

func (r *Registry) tenant(name string) *tenant {
	r.mu.RLock()
	t := r.tenants[name]
	r.mu.RUnlock()
	return t
}

// Add registers the model under its name; an existing binding is
// swapped out (see Swap).
func (r *Registry) Add(m *Model) { r.Swap(m) }

// Swap atomically installs m as its name's current version and returns
// the replaced version (nil for a first binding). The old version is
// retired: requests that already resolved it finish on it (that IS the
// drain window), new requests land on m. Callers that need to know the
// rollout completed wait on old.Drain.
func (r *Registry) Swap(m *Model) *Model {
	r.mu.Lock()
	t := r.tenants[m.name]
	if t == nil {
		t = &tenant{name: m.name}
		r.tenants[m.name] = t
	}
	r.mu.Unlock()

	t.swapMu.Lock()
	old := t.cur.Load()
	if old != nil {
		m.version = old.version + 1
	} else {
		m.version = 1
	}
	t.cur.Store(m)
	t.swapMu.Unlock()
	if old != nil {
		old.Retire()
		m.mc.Inc(metrics.ServeModelSwaps)
	}
	m.mc.SetNamedGauge("serve.model."+m.name+".version", int64(m.version))
	return old
}

// Get returns the named model's current version.
func (r *Registry) Get(name string) (*Model, bool) {
	t := r.tenant(name)
	if t == nil {
		return nil, false
	}
	m := t.cur.Load()
	return m, m != nil
}

// Acquire returns the named model's current version with a reference
// held; the caller must call release when its request is done. The
// reference keeps drain accounting exact across concurrent swaps.
func (r *Registry) Acquire(name string) (m *Model, release func(), ok bool) {
	t := r.tenant(name)
	if t == nil {
		return nil, nil, false
	}
	m, release = t.acquire()
	return m, release, true
}

// SetShadow directs the named tenant's traffic through route (nil
// clears). The shadow model must be bound but need not be registered.
func (r *Registry) SetShadow(name string, route *ShadowRoute) error {
	t := r.tenant(name)
	if t == nil {
		return fmt.Errorf("%w: %q", ErrNoModel, name)
	}
	if route == nil {
		t.shadow.Store(nil)
		return nil
	}
	if route.Model == nil {
		return fmt.Errorf("serve: shadow route for %q has no model", name)
	}
	t.shadow.Store(route.normalized())
	return nil
}

// Shadow returns the tenant's current shadow route (nil when off).
func (r *Registry) Shadow(name string) *ShadowRoute {
	t := r.tenant(name)
	if t == nil {
		return nil
	}
	return t.shadow.Load()
}

// Predict classifies the batch through the full tenancy path: acquire
// the tenant's current version, claim its concurrency budget (shedding
// with ErrOverloaded when exhausted), apply shadow/A-B routing, and
// return positionally aligned verdicts plus the version that served
// each example.
func (r *Registry) Predict(ctx context.Context, name string, examples []Example) (verdicts []bool, versions []int, err error) {
	m, release, ok := r.Acquire(name)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoModel, name)
	}
	defer release()
	if !m.tryAcquireSlot() {
		m.mc.Inc(metrics.ServeLoadShed)
		return nil, nil, fmt.Errorf("%w: model %q at %d in-flight predicts", ErrOverloaded, name, cap(m.slots))
	}
	defer m.releaseSlot()

	route := r.Shadow(name)
	if route == nil {
		verdicts, err = m.PredictBatch(ctx, examples)
		if err != nil {
			return nil, nil, err
		}
		return verdicts, uniformVersions(m.version, len(examples)), nil
	}

	switch route.Mode {
	case ShadowSplit:
		return predictSplit(ctx, m, route, examples)
	default:
		return predictCompared(ctx, m, route, examples)
	}
}

func uniformVersions(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// predictCompared serves from the primary and replays a deterministic
// sample against the shadow, counting mismatches. The shadow leg is
// best-effort: its errors and sheds are recorded, never surfaced.
func predictCompared(ctx context.Context, m *Model, route *ShadowRoute, examples []Example) ([]bool, []int, error) {
	verdicts, err := m.PredictBatch(ctx, examples)
	if err != nil {
		return nil, nil, err
	}
	sh := route.Model
	sample := make([]Example, 0, len(examples))
	sampleIdx := make([]int, 0, len(examples))
	for i, e := range examples {
		if abHash(e.String()) < route.Percent {
			sample = append(sample, e)
			sampleIdx = append(sampleIdx, i)
		}
	}
	if len(sample) > 0 && sh.tryAcquireSlot() {
		sh.ref()
		shadowVerdicts, serr := sh.PredictBatch(ctx, sample)
		sh.unref()
		sh.releaseSlot()
		if serr == nil {
			mismatches := 0
			for j, v := range shadowVerdicts {
				if v != verdicts[sampleIdx[j]] {
					mismatches++
				}
			}
			m.mc.Add(metrics.ServeShadowChecks, int64(len(sample)))
			m.mc.Add(metrics.ServeShadowMismatches, int64(mismatches))
		}
	}
	return verdicts, uniformVersions(m.version, len(examples)), nil
}

// predictSplit A/B-routes the batch: examples hashing below Percent are
// served by the shadow version, the rest by the primary. A shed shadow
// falls back to the primary for its share (counted as load shed) so the
// request still succeeds.
func predictSplit(ctx context.Context, m *Model, route *ShadowRoute, examples []Example) ([]bool, []int, error) {
	sh := route.Model
	var primary, shadow []Example
	var primaryIdx, shadowIdx []int
	for i, e := range examples {
		if abHash(e.String()) < route.Percent {
			shadow = append(shadow, e)
			shadowIdx = append(shadowIdx, i)
		} else {
			primary = append(primary, e)
			primaryIdx = append(primaryIdx, i)
		}
	}
	verdicts := make([]bool, len(examples))
	versions := make([]int, len(examples))
	if len(shadow) > 0 {
		if sh.tryAcquireSlot() {
			sh.ref()
			got, err := sh.PredictBatch(ctx, shadow)
			sh.unref()
			sh.releaseSlot()
			if err != nil {
				return nil, nil, err
			}
			for j, i := range shadowIdx {
				verdicts[i] = got[j]
				versions[i] = sh.version
			}
		} else {
			// Shadow saturated: its share rides the primary this request.
			m.mc.Inc(metrics.ServeLoadShed)
			primary = append(primary, shadow...)
			primaryIdx = append(primaryIdx, shadowIdx...)
		}
	}
	if len(primary) > 0 {
		got, err := m.PredictBatch(ctx, primary)
		if err != nil {
			return nil, nil, err
		}
		for j, i := range primaryIdx {
			verdicts[i] = got[j]
			versions[i] = m.version
		}
	}
	return verdicts, versions, nil
}

// Names lists registered model names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// DBResolver maps an artifact's data reference to a live database.
type DBResolver func(model.DataRef) (*db.Database, error)

// DefaultResolver resolves generated datasets by regenerating them and
// CSV references by loading the directory (csvOverride, when non-empty,
// replaces every artifact's CSV path — the serving host's data rarely
// lives where the training host's did). Databases are cached by
// reference, so models trained on the same data share one instance.
// The returned resolver is safe for concurrent use (hot reloads can
// race the initial load).
func DefaultResolver(csvOverride string) DBResolver {
	var mu sync.Mutex
	cache := make(map[string]*db.Database)
	return func(ref model.DataRef) (*db.Database, error) {
		if ref.IsZero() {
			return nil, fmt.Errorf("serve: artifact has no data reference; pass the data explicitly")
		}
		if ref.CSVDir != "" && csvOverride != "" {
			ref.CSVDir = csvOverride
		}
		key := ref.Key()
		mu.Lock()
		defer mu.Unlock()
		if d, ok := cache[key]; ok {
			return d, nil
		}
		var (
			d   *db.Database
			err error
		)
		if ref.Dataset != "" {
			var ds *datagen.Dataset
			ds, err = datagen.Generate(ref.Dataset, datagen.Config{Scale: ref.Scale, Seed: ref.Seed})
			if err == nil {
				d = ds.DB
			}
		} else {
			d, err = db.LoadCSVDir(ref.CSVDir)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: resolving %s: %w", key, err)
		}
		cache[key] = d
		return d, nil
	}
}

// LoadDir loads every *.model artifact in dir (sorted, so registry
// contents are deterministic), resolves each one's database, and binds
// it under its file base name. Any bad artifact fails the whole load:
// a serving process with a silently missing model is worse than one
// that refuses to start.
func LoadDir(ctx context.Context, dir string, resolve DBResolver, opts Options) (*Registry, error) {
	paths, err := modelPaths(dir)
	if err != nil {
		return nil, err
	}
	r := NewRegistry()
	for _, p := range paths {
		art, err := model.Load(p)
		if err != nil {
			return nil, err
		}
		database, err := resolve(art.Data)
		if err != nil {
			return nil, fmt.Errorf("serve: %s: %w", p, err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".model")
		m, err := Bind(ctx, name, art, database, opts)
		if err != nil {
			return nil, err
		}
		r.Add(m)
		opts.Metrics.Inc(metrics.ServeModelsLoaded)
	}
	return r, nil
}

func modelPaths(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.model"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("serve: no *.model files in %s", dir)
	}
	sort.Strings(paths)
	return paths, nil
}

// ReloadReport summarizes one ReloadDir sweep.
type ReloadReport struct {
	// Swapped names models replaced with a new version; Added names
	// first-time bindings; Unchanged names artifacts whose checksum
	// matched the serving version (skipped); Failed maps names to load or
	// bind errors (existing versions keep serving).
	Swapped   []string          `json:"swapped,omitempty"`
	Added     []string          `json:"added,omitempty"`
	Unchanged []string          `json:"unchanged,omitempty"`
	Failed    map[string]string `json:"failed,omitempty"`
	// Retired holds the replaced versions, still draining their in-flight
	// requests; callers wanting rollout confirmation wait on Drain.
	Retired []*Model `json:"-"`
}

// ReloadDir re-scans a models directory and hot-swaps changed models
// into the registry with zero downtime: each changed artifact is fully
// bound BEFORE its swap, the swap is atomic, and the
// replaced version drains in-flight requests on its own. Unchanged
// artifacts (same checksum as the serving version) are skipped;
// per-model failures are reported but never interrupt serving — unlike
// startup (LoadDir), where a bad artifact fails the process, a bad
// reload keeps the last good version live.
func ReloadDir(ctx context.Context, r *Registry, dir string, resolve DBResolver, opts Options) (*ReloadReport, error) {
	paths, err := modelPaths(dir)
	if err != nil {
		return nil, err
	}
	opts.Metrics.Inc(metrics.ServeReloads)
	rep := &ReloadReport{Failed: make(map[string]string)}
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".model")
		art, err := model.Load(p)
		if err != nil {
			rep.Failed[name] = err.Error()
			continue
		}
		if cur, ok := r.Get(name); ok && cur.art.Checksum == art.Checksum {
			rep.Unchanged = append(rep.Unchanged, name)
			continue
		}
		database, err := resolve(art.Data)
		if err != nil {
			rep.Failed[name] = err.Error()
			continue
		}
		m, err := Bind(ctx, name, art, database, opts)
		if err != nil {
			rep.Failed[name] = err.Error()
			continue
		}
		if old := r.Swap(m); old != nil {
			rep.Swapped = append(rep.Swapped, name)
			rep.Retired = append(rep.Retired, old)
		} else {
			rep.Added = append(rep.Added, name)
			opts.Metrics.Inc(metrics.ServeModelsLoaded)
		}
	}
	if len(rep.Failed) == 0 {
		rep.Failed = nil
	}
	return rep, nil
}
