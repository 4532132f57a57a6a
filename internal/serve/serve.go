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
// ground BC, in training and here, is the builder's Ground build on a
// per-example derived seed (DESIGN.md §19), so a verdict is a pure
// function of (model, example) — equal to the learner's own for
// training, held-out and never-seen examples alike, invariant under
// request order, concurrency, and process restarts.
//
// A model keeps one cache: a verdict memo per example (memo.go). A memo
// miss is one cold build, learn.CoverageEngine.CheckDefinitionCtx, which
// builds the example's ground entry, tests the definition against it
// and keeps nothing. Purity means the memo can only redistribute cost,
// never change an answer (see the differential suite).
//
// Multi-model tenancy: a Registry holds one versioned current Model per
// name, swapped atomically (Swap). A request serves on the version it
// resolved, even if a swap replaces it meanwhile; a replaced version
// holds only memory, so nothing waits for it to empty — the garbage
// collector retires it. Each model keeps one in-flight count of admitted
// predicts: it is the model's concurrency budget, so one hot model
// cannot starve the rest, and the in_flight gauge that readiness
// reports.
package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	"repro/internal/pool"
)

// Example is a ground literal of a model's target relation.
type Example = logic.Literal

// ErrNoModel reports a predict against a name the registry does not
// hold.
var ErrNoModel = errors.New("serve: no such model")

// ErrBadExample reports an example that does not query the serving
// model's target signature. HTTP maps it to 400.
var ErrBadExample = errors.New("serve: bad example")

// ErrOverloaded reports a predict shed because the model's concurrency
// budget was exhausted. HTTP maps it to 503 with Retry-After.
var ErrOverloaded = errors.New("serve: model concurrency budget exhausted")

// Options configures model binding.
type Options struct {
	// Workers bounds per-request coverage parallelism; <=0 selects
	// GOMAXPROCS (the engine's convention). A batch fans out on
	// min(Workers, batch size) goroutines.
	Workers int
	// CacheBytes is ignored: a model caches verdicts, not ground
	// entries (see the package comment).
	//
	// Deprecated: kept only so existing callers compile; it will be
	// removed.
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
	// Uncached disables the verdict memo: every prediction is a cold
	// build. This is the reference engine the differential suite
	// compares memoized models against, and the honest cold-path
	// baseline in benchmarks.
	Uncached bool
	// Metrics, when non-nil, receives serve counters and engine
	// instrumentation.
	Metrics *metrics.Collector
}

func (o Options) normalized() Options {
	if o.MemoLimit <= 0 {
		o.MemoLimit = 65536
	}
	return o
}

// Model is one bound model version: an artifact, its database, a warmed
// coverage engine, and the verdict memo. Safe for concurrent use.
type Model struct {
	name    string
	version int
	art     *model.Artifact
	def     *logic.Definition
	engine  *learn.CoverageEngine
	mc      *metrics.Collector

	// memo caches definition-level verdicts; nil in Uncached mode.
	memo *verdictMemo
	// inflight counts predicts admitted through Registry.Predict; a
	// positive limit (Options.ModelConcurrency) bounds it.
	inflight atomic.Int64
	limit    int64
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

	m := &Model{
		name:    name,
		version: 1,
		art:     art,
		def:     def,
		engine:  engine,
		mc:      opts.Metrics,
		limit:   int64(opts.ModelConcurrency),
	}
	if !opts.Uncached {
		m.memo = newVerdictMemo(opts.MemoLimit)
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

// InFlight reports how many predicts this version is serving.
func (m *Model) InFlight() int { return int(m.inflight.Load()) }

// tryAcquireSlot admits one predict against the model's budget without
// queueing; false means the caller should shed.
func (m *Model) tryAcquireSlot() bool {
	for {
		n := m.inflight.Load()
		if m.limit > 0 && n >= m.limit {
			return false
		}
		if m.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (m *Model) releaseSlot() { m.inflight.Add(-1) }

// checkExample validates that e queries this model's target relation;
// its errors wrap ErrBadExample.
func (m *Model) checkExample(e logic.Literal) error {
	if e.Predicate != m.art.Target {
		return fmt.Errorf("%w: model %q classifies %s/%d, not %s/%d",
			ErrBadExample, m.name, m.art.Target, len(m.art.TargetAttrs), e.Predicate, e.Arity())
	}
	if e.Arity() != len(m.art.TargetAttrs) {
		return fmt.Errorf("%w: model %q: %s takes %d attributes (%s), got %d",
			ErrBadExample, m.name, m.art.Target, len(m.art.TargetAttrs), strings.Join(m.art.TargetAttrs, ","), e.Arity())
	}
	if !e.IsGround() {
		return fmt.Errorf("%w: %s is not ground", ErrBadExample, e.String())
	}
	return nil
}

// predictOne is the serving hot path: the verdict memo, then one cold
// build (CheckDefinitionCtx). The memo only redistributes cost; the
// verdict is a pure function of (model, example).
func (m *Model) predictOne(ctx context.Context, e Example) (bool, error) {
	key := e.String()
	if m.memo != nil {
		if v, ok := m.memo.get(key); ok {
			m.mc.Inc(metrics.ServeMemoHits)
			return v, nil
		}
	}
	m.mc.Inc(metrics.ServeCacheMisses)
	v, err := m.engine.CheckDefinitionCtx(ctx, m.def, e)
	if err != nil {
		return false, err
	}
	if m.memo != nil {
		m.memo.put(key, v)
	}
	return v, nil
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

// PredictBatch reports whether the learned theory covers each ground
// example, with the training verdict semantics (see the package
// comment). It fans the independent coverage tests through pool.Run on
// min(Workers, batch size) goroutines — the engine's rule. Verdicts
// are positionally aligned with the input and identical at every worker
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
	err := pool.Run(len(examples), m.engine.Workers(), func(_, i int) error {
		ok, err := m.predictOne(ctx, examples[i])
		out[i] = ok
		return err
	})
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

// Registry holds the bound models of a serving process, keyed by name:
// one atomically swapped current version per name. Safe for concurrent
// use; reads never block on swaps.
type Registry struct {
	mu      sync.RWMutex
	current map[string]*atomic.Pointer[Model]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{current: make(map[string]*atomic.Pointer[Model])}
}

// Swap atomically installs m as its name's current version (version =
// old+1, or 1 for a first binding) and returns the replaced version,
// nil for a first binding. Requests that already resolved the old
// version finish on it; new requests land on m.
func (r *Registry) Swap(m *Model) *Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.current[m.name]
	if cur == nil {
		cur = new(atomic.Pointer[Model])
		r.current[m.name] = cur
	}
	old := cur.Load()
	m.version = 1
	if old != nil {
		m.version = old.version + 1
		m.mc.Inc(metrics.ServeModelSwaps)
	}
	cur.Store(m)
	return old
}

// Get returns the named model's current version.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	cur := r.current[name]
	r.mu.RUnlock()
	if cur == nil {
		return nil, false
	}
	m := cur.Load()
	return m, m != nil
}

// Predict classifies the batch through the full tenancy path: resolve
// the name's current version, admit the predict against its in-flight
// budget (shedding with ErrOverloaded when exhausted), and return
// positionally aligned verdicts plus the version that served each
// example — one version for the whole batch, which also validates it.
func (r *Registry) Predict(ctx context.Context, name string, examples []Example) (verdicts []bool, versions []int, err error) {
	m, ok := r.Get(name)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoModel, name)
	}
	if !m.tryAcquireSlot() {
		m.mc.Inc(metrics.ServeLoadShed)
		return nil, nil, fmt.Errorf("%w: model %q at %d in-flight predicts", ErrOverloaded, name, m.limit)
	}
	defer m.releaseSlot()
	verdicts, err = m.PredictBatch(ctx, examples)
	if err != nil {
		return nil, nil, err
	}
	versions = make([]int, len(examples))
	for i := range versions {
		versions[i] = m.version
	}
	return verdicts, versions, nil
}

// Names lists registered model names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.current))
	for name := range r.current {
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
	return len(r.current)
}

// DBResolver maps an artifact's data reference to a live database.
type DBResolver func(model.DataRef) (*db.Database, error)

// DefaultResolver resolves generated datasets by regenerating them and
// CSV references by loading the directory (csvOverride, when non-empty,
// replaces every artifact's CSV path — the serving host's data rarely
// lives where the training host's did). Databases are cached by
// reference, so models trained on the same data share one instance; a
// CSV reference also carries a digest of its directory's files, so data
// changed on disk since it was cached is loaded again (and replaces the
// cached instance) rather than served as it was.
// The returned resolver is safe for concurrent use (hot reloads can
// race the initial load).
func DefaultResolver(csvOverride string) DBResolver {
	type cached struct {
		digest string
		d      *db.Database
	}
	var mu sync.Mutex
	cache := make(map[string]cached)
	return func(ref model.DataRef) (*db.Database, error) {
		if ref.IsZero() {
			return nil, fmt.Errorf("serve: artifact has no data reference; pass the data explicitly")
		}
		if ref.CSVDir != "" && csvOverride != "" {
			ref.CSVDir = csvOverride
		}
		if ref.Dataset != "" {
			// Refs that differ only by spelling a default ({uw, scale 0}
			// and {uw, scale 1}) name one database: build it once.
			cfg := datagen.Config{Scale: ref.Scale, Seed: ref.Seed}.Normalized()
			ref.Scale, ref.Seed = cfg.Scale, cfg.Seed
		}
		key := ref.Key()
		var digest string
		if ref.Dataset == "" {
			var err error
			if digest, err = csvDigest(ref.CSVDir); err != nil {
				return nil, fmt.Errorf("serve: resolving %s: %w", key, err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if c, ok := cache[key]; ok && c.digest == digest {
			return c.d, nil
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
		cache[key] = cached{digest: digest, d: d}
		return d, nil
	}
}

// csvDigest hashes the names and contents of the files db.LoadCSVDir
// reads from dir: its *.csv files, in name order.
func csvDigest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		file := sha256.New()
		_, err = io.Copy(file, f)
		f.Close()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%x\n", e.Name(), file.Sum(nil))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
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
		m, _, err := bindFile(ctx, r, p, resolve, opts)
		if err != nil {
			return nil, err
		}
		r.Swap(m)
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

func modelName(path string) string { return strings.TrimSuffix(filepath.Base(path), ".model") }

// bindFile is the one per-artifact step of LoadDir and ReloadDir: load
// the artifact at path, resolve its database, and bind it under the
// file's base name. When r already serves an artifact with the same
// checksum, bindFile returns that version, unchanged, and binds nothing.
func bindFile(ctx context.Context, r *Registry, path string, resolve DBResolver, opts Options) (m *Model, unchanged bool, err error) {
	name := modelName(path)
	art, err := model.Load(path)
	if err != nil {
		return nil, false, err
	}
	if cur, ok := r.Get(name); ok && cur.art.Checksum == art.Checksum {
		return cur, true, nil
	}
	database, err := resolve(art.Data)
	if err != nil {
		return nil, false, fmt.Errorf("serve: %s: %w", path, err)
	}
	m, err = Bind(ctx, name, art, database, opts)
	return m, false, err
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
}

// ReloadDir re-scans a models directory and hot-swaps changed models
// into the registry with zero downtime: each changed artifact is fully
// bound BEFORE its swap, and the swap is atomic. Unchanged artifacts
// (same checksum as the serving version) are skipped; per-model
// failures are reported but never interrupt serving — unlike startup
// (LoadDir), where a bad artifact fails the process, a bad reload keeps
// the last good version live.
func ReloadDir(ctx context.Context, r *Registry, dir string, resolve DBResolver, opts Options) (*ReloadReport, error) {
	paths, err := modelPaths(dir)
	if err != nil {
		return nil, err
	}
	opts.Metrics.Inc(metrics.ServeReloads)
	rep := &ReloadReport{Failed: make(map[string]string)}
	for _, p := range paths {
		name := modelName(p)
		m, unchanged, err := bindFile(ctx, r, p, resolve, opts)
		switch {
		case err != nil:
			rep.Failed[name] = err.Error()
		case unchanged:
			rep.Unchanged = append(rep.Unchanged, name)
		default:
			if old := r.Swap(m); old != nil {
				rep.Swapped = append(rep.Swapped, name)
			} else {
				rep.Added = append(rep.Added, name)
				opts.Metrics.Inc(metrics.ServeModelsLoaded)
			}
		}
	}
	if len(rep.Failed) == 0 {
		rep.Failed = nil
	}
	return rep, nil
}
