// Package autobias is a from-scratch Go implementation of AutoBias
// (Picado et al., "Scalable and Usable Relational Learning With Automatic
// Language Bias", SIGMOD 2021): a relational (inductive logic
// programming) learner over an in-memory relational database, with
// automatic induction of language bias from exact and approximate
// inclusion dependencies, three bottom-clause sampling strategies, and
// θ-subsumption coverage testing.
//
// The package is a facade over the implementation packages under
// internal/; see DESIGN.md for the full system inventory. Typical use:
//
//	task := autobias.Task{DB: db, Target: "advisedBy",
//		TargetAttrs: []string{"stud", "prof"}, Pos: pos, Neg: neg}
//	res, err := autobias.Learn(task, autobias.Options{Method: autobias.MethodAutoBias})
//	fmt.Println(res.Definition)
package autobias

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/bias"
	"repro/internal/bottom"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/foil"
	"repro/internal/ind"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/subsume"
)

// Re-exported core types, so callers need only this package.
type (
	// Database is the in-memory relational engine.
	Database = db.Database
	// Schema describes a database's relations.
	Schema = db.Schema
	// Tuple is one database row.
	Tuple = db.Tuple
	// Example is a ground literal of the target relation.
	Example = logic.Literal
	// Clause is a Horn clause.
	Clause = logic.Clause
	// Definition is a learned set of clauses.
	Definition = logic.Definition
	// Bias is a language bias (predicate + mode definitions).
	Bias = bias.Bias
	// IND is a unary inclusion dependency.
	IND = ind.IND
	// TypeGraph is the Algorithm 3 graph behind an induced bias.
	TypeGraph = bias.TypeGraph
	// Dataset is a generated benchmark dataset.
	Dataset = datagen.Dataset
	// Metrics are precision/recall/F-measure.
	Metrics = eval.Metrics
	// CVResult aggregates cross-validation outcomes.
	CVResult = eval.CVResult
	// Report records a run's degradation events (deadline hits, recovered
	// worker panics, abandoned coverage work, exhausted subsumption
	// budgets); see Result.Report.
	Report = report.Report
	// DegradationEvent is one recorded degradation.
	DegradationEvent = report.Event
	// DegradationKind classifies degradation events.
	DegradationKind = report.Kind
	// MetricsCollector accumulates run instrumentation (atomic counters,
	// histograms, stage spans); see Options.Metrics/Options.Collector and
	// DESIGN.md §9.
	MetricsCollector = metrics.Collector
	// MetricsSnapshot is a point-in-time copy of a collector, exposed on
	// Result.Metrics and written by the CLIs' -metrics flags.
	MetricsSnapshot = metrics.Snapshot
	// ModelArtifact is the versioned on-disk form of a learned model; see
	// Result.BuildArtifact, internal/model, and the serving stack
	// (internal/serve, cmd/serve).
	ModelArtifact = model.Artifact
	// ModelDataRef names the database a model was trained over, so a
	// serving process can rebind it.
	ModelDataRef = model.DataRef
	// ShardWorker is one shard-worker service — a coverage engine behind
	// HTTP, answering a distributed run's coverage RPCs; see
	// NewShardWorker, Options.Shard, and cmd/shardworker.
	ShardWorker = shard.Worker
	// ShardWorkerOptions tunes a shard worker's HTTP substrate (request
	// cap, timeouts); the zero value selects defaults.
	ShardWorkerOptions = shard.WorkerOptions
)

// LoadModel reads and verifies a model artifact (version, checksum,
// embedded theory/bias).
func LoadModel(path string) (*ModelArtifact, error) { return model.Load(path) }

// NewMetricsCollector returns an enabled, empty instrumentation
// collector, for callers that want to aggregate several runs (pass it as
// Options.Collector) or serve live snapshots while a run is in flight.
func NewMetricsCollector() *MetricsCollector { return metrics.New() }

// Degradation-event kinds, re-exported from internal/report.
const (
	// DegradationDeadlineHit: the run's deadline interrupted learning; the
	// returned theory is partial.
	DegradationDeadlineHit = report.DeadlineHit
	// DegradationPanicRecovered: a coverage worker panicked; the example
	// was isolated as "not covered" and learning continued.
	DegradationPanicRecovered = report.PanicRecovered
	// DegradationCoverageAbandoned: a coverage count stopped early on
	// cancellation.
	DegradationCoverageAbandoned = report.CoverageAbandoned
	// DegradationBottomAbandoned: a bottom-clause construction was
	// interrupted.
	DegradationBottomAbandoned = report.BottomAbandoned
	// DegradationSubsumeBudget: a subsumption test exhausted its node
	// budget and reported "not covered" (the §5 sound approximation; not
	// counted by Report.Degraded).
	DegradationSubsumeBudget = report.SubsumeBudget
	// DegradationShardRetried: a shard coverage RPC failed and was retried
	// (or failed over to a surviving shard). Results stay exact — the
	// retry resolved the same pure verdicts — so this does not count as
	// Degraded.
	DegradationShardRetried = report.ShardRetried
	// DegradationShardFellBackLocal: every worker for a shard was
	// unreachable and its examples were computed in-process. Results stay
	// exact; the run merely lost its distribution.
	DegradationShardFellBackLocal = report.ShardFellBackLocal
	// DegradationShardLost: a shard's examples could not be resolved
	// anywhere (local fallback disabled); the run degraded to its anytime
	// partial theory.
	DegradationShardLost = report.ShardLost
)

// NewSchema creates an empty schema.
func NewSchema() *Schema { return db.NewSchema() }

// NewDatabase creates a database over a schema.
func NewDatabase(s *Schema) *Database { return db.New(s) }

// LoadCSVDir loads a database from a directory of <relation>.csv files.
func LoadCSVDir(dir string) (*Database, error) { return db.LoadCSVDir(dir) }

// ParseExample parses a ground target literal like "advisedBy(juan,sarita)".
func ParseExample(s string) (Example, error) { return model.ParseExample(s) }

// ParseBias parses a language bias from its text form.
func ParseBias(text string) (*Bias, error) { return bias.Parse(text) }

// ParseClause parses a Horn clause in Datalog syntax, e.g.
// "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).".
func ParseClause(s string) (*Clause, error) { return logic.ParseClause(s) }

// GenerateDataset builds one of the paper's five evaluation datasets:
// "uw", "hiv", "imdb", "flt" or "sys". Scale 0 selects the default size,
// seed 0 a fixed seed.
func GenerateDataset(name string, scale float64, seed int64) (*Dataset, error) {
	return datagen.Generate(name, datagen.Config{Scale: scale, Seed: seed})
}

// DatasetNames lists the generated datasets in Table 5 order.
func DatasetNames() []string { return datagen.Names() }

// Method selects how the language bias is obtained and which clause
// search the covering loop runs — the five columns of the paper's
// Table 5.
type Method string

const (
	// MethodCastor is the baseline: one shared type, every attribute may
	// be a variable or a constant.
	MethodCastor Method = "castor"
	// MethodNoConst is the baseline without constants.
	MethodNoConst Method = "noconst"
	// MethodManual uses the expert-written bias with the bottom-up
	// search.
	MethodManual Method = "manual"
	// MethodAleph uses the expert-written bias with top-down FOIL clause
	// growth (Aleph emulating FOIL, §6.1) under the same covering loop as
	// every other method, so it shards, serves and repairs like them.
	MethodAleph Method = "aleph"
	// MethodAutoBias induces the bias automatically (§3) and runs the
	// bottom-up search.
	MethodAutoBias Method = "autobias"
)

// Methods lists the Table 5 methods in column order.
func Methods() []Method {
	return []Method{MethodCastor, MethodNoConst, MethodManual, MethodAleph, MethodAutoBias}
}

// Sampling selects the bottom-clause sampling strategy (Table 6).
type Sampling = bottom.Strategy

const (
	// SamplingNaive samples relations uniformly and independently (§4.1).
	SamplingNaive = bottom.Naive
	// SamplingRandom samples over semi-joins (§4.2).
	SamplingRandom = bottom.Random
	// SamplingStratified samples every stratum (§4.3).
	SamplingStratified = bottom.Stratified
)

// Task is a learning problem: a database, a target relation, examples,
// and optionally an expert bias (required by MethodManual/MethodAleph).
type Task struct {
	DB          *Database
	Target      string
	TargetAttrs []string
	Pos, Neg    []Example
	Manual      *Bias
}

// TaskFromDataset adapts a generated dataset.
func TaskFromDataset(ds *Dataset) Task {
	return Task{DB: ds.DB, Target: ds.Target, TargetAttrs: ds.TargetAttrs,
		Pos: ds.Pos, Neg: ds.Neg, Manual: ds.Manual}
}

// Options configures a learning run. The zero value reproduces the
// paper's defaults: naïve sampling, 20 tuples per mode, depth 2,
// constant-threshold 18% relative, approximate-IND error 50%.
type Options struct {
	// Method selects bias source and learner; empty means MethodAutoBias.
	Method Method
	// Sampling selects the BC sampling strategy (default naïve, §6.1).
	Sampling Sampling
	// Depth is the BC construction iteration count d (default 2).
	Depth int
	// SampleSize is s, tuples per mode/stratum (default 20).
	SampleSize int
	// MaxLiterals caps BC body size (default 1500).
	MaxLiterals int
	// ConstantThreshold is the §3.2 hyper-parameter as a relative ratio
	// (default 0.18).
	ConstantThreshold float64
	// ApproxINDError is the approximate-IND error cutoff (default 0.5).
	ApproxINDError float64
	// INDs, when non-nil, skips IND discovery (e.g. reuse across folds).
	INDs []IND
	// BeamWidth for the bottom-up search's generalization (default 3).
	BeamWidth int
	// EvalSampleCap bounds per-candidate scoring work (default 200; 150
	// under MethodAleph, whose growth steps score far more candidates).
	EvalSampleCap int
	// MinPrecision is the minimum-criterion precision (default 0.7).
	MinPrecision float64
	// SubsumeMaxNodes bounds each θ-subsumption test (default 5000: the
	// learners' own deliberately tight budget, see learn.Options — not
	// the subsume package's standalone 100000).
	SubsumeMaxNodes int
	// Timeout bounds one learning run; 0 means unlimited. Timed-out runs
	// return partial definitions with Result.TimedOut set (the paper's
	// ">10h" rows).
	Timeout time.Duration
	// Seed fixes all randomness (default 1).
	Seed int64
	// Workers bounds parallelism: coverage testing (the per-example
	// θ-subsumption checks that dominate learning, §5) fans out over a
	// worker pool of this size, and CrossValidate trains up to this many
	// folds concurrently. <=0 defaults to runtime.GOMAXPROCS(0); 1
	// reproduces the sequential engine exactly. Results are identical at
	// every worker count (see DESIGN.md, "Concurrency architecture").
	Workers int
	// Metrics enables run instrumentation: counters, histograms and stage
	// spans collected through the hot paths and snapshotted on
	// Result.Metrics. Off by default; disabled collection costs nothing
	// (see DESIGN.md §9).
	Metrics bool
	// Collector, when non-nil, receives the run's instrumentation instead
	// of a fresh per-run collector (implies Metrics). Use one collector
	// across runs to aggregate, or poll Snapshot() live from another
	// goroutine — all collector methods are concurrency-safe.
	Collector *MetricsCollector
	// PureGroundBCs is ignored.
	//
	// Deprecated: derived-seed ground-BC provenance is the only one there
	// is (DESIGN.md §19), so there is nothing left to select. The field
	// survives one PR only because bench/sharded.go:127 and
	// bench/liveloop.go:170 still set it and the PR that removed the
	// option could not edit bench/; the next benchmark PR deletes those
	// two lines and this field with them.
	PureGroundBCs bool
	// Shard, when non-nil, distributes coverage testing — the learner's
	// hot loop — across shard-worker processes; see ShardOptions,
	// NewShardWorker and DESIGN.md §13. Every Method shards: a worker
	// serves coverage, so its fingerprint covers the bias the Method
	// selects, not the clause search.
	Shard *ShardOptions
}

// ShardOptions configures a distributed coverage run: the worker fleet
// plus the knobs of its one failure rule — each count makes up to
// Retries attempts across a shard's replicas, then resolves that
// shard's examples in-process for the rest of the run (or aborts, with
// DisableLocalFallback). The zero value of every field selects a sane
// default; only Workers is required. It applies to every Method alike:
// the covering loop and both clause searches reach coverage through one
// bulk count, which is what the fleet serves.
type ShardOptions struct {
	// Workers lists the fleet, one entry per shard; replicas of the same
	// shard are separated by '|', e.g.
	// {"http://a:7001|http://b:7001", "http://a:7002"}. Every worker must
	// be started (cmd/shardworker or NewShardWorker) from the same task
	// and options as this run — a config fingerprint on every RPC
	// enforces it.
	Workers []string
	// RequestTimeout bounds one RPC attempt; <=0 selects 10s.
	RequestTimeout time.Duration
	// Retries is the attempt budget per shard per count; <=0 selects 3.
	Retries int
	// DisableLocalFallback aborts (anytime, partial theory) instead of
	// computing a lost shard's examples in-process.
	DisableLocalFallback bool
}

// shardFleet parses the "url1|url2" replica syntax into per-shard
// replica lists.
func (so *ShardOptions) shardFleet() [][]string {
	fleet := make([][]string, 0, len(so.Workers))
	for _, entry := range so.Workers {
		var reps []string
		for _, u := range strings.Split(entry, "|") {
			if u = strings.TrimSpace(u); u != "" {
				reps = append(reps, strings.TrimSuffix(u, "/"))
			}
		}
		fleet = append(fleet, reps)
	}
	return fleet
}

// collector resolves the run's metrics collector: Collector wins, then
// Metrics allocates a fresh one, else nil (collection disabled).
func (o Options) collector() *metrics.Collector {
	if o.Collector != nil {
		return o.Collector
	}
	if o.Metrics {
		return metrics.New()
	}
	return nil
}

func (o Options) method() Method {
	if o.Method == "" {
		return MethodAutoBias
	}
	return o.Method
}

func (o Options) bottomOptions() bottom.Options {
	return bottom.Options{
		Strategy:    o.Sampling,
		Depth:       o.Depth,
		SampleSize:  o.SampleSize,
		MaxLiterals: o.MaxLiterals,
		Seed:        o.Seed,
	}
}

// assemble builds a run's learner, for a learning run, the repair that
// follows it and the shard workers that serve both alike, so the three
// cannot drift apart: the bias the task and options select (built or
// induced), compiled, under a learner that is the one place the facade's
// Options become learn.Options and Method picks the clause search. The
// returned result holds the bias, its provenance and BiasTime; run
// completes it.
func (o Options) assemble(task Task, mc *metrics.Collector) (*Result, *learn.Learner, error) {
	biasStart := time.Now()
	b, graph, err := BuildBias(task, o)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Bias: b, Graph: graph, BiasTime: time.Since(biasStart), db: task.DB, metrics: mc}
	compiled, err := b.Compile(task.DB.Schema(), task.Target, len(task.TargetAttrs))
	if err != nil {
		return nil, nil, err
	}
	lo := learn.Options{
		Bottom:        o.bottomOptions(),
		Subsume:       subsume.Options{MaxNodes: o.SubsumeMaxNodes, Seed: o.Seed},
		BeamWidth:     o.BeamWidth,
		EvalSampleCap: o.EvalSampleCap,
		MinPrecision:  o.MinPrecision,
		Timeout:       o.Timeout,
		Seed:          o.Seed,
		Workers:       o.Workers,
		Metrics:       mc,
	}
	if o.method() == MethodAleph {
		return res, foil.New(task.DB, compiled, lo), nil
	}
	return res, learn.New(task.DB, compiled, lo), nil
}

// engineFingerprint is the config fingerprint a coordinator sends and a
// shard worker checks on every RPC.
func engineFingerprint(engine *learn.CoverageEngine, task Task, b *Bias) string {
	return shard.EngineFingerprint(engine,
		model.Fingerprint(task.DB.Schema(), task.Target, task.TargetAttrs), b.String())
}

// run is the second half of a learning run or a repair: the covering
// loop of an assembled learner, captured on res with its wall-clock.
// With Options.Shard its coverage counts go through the fleet over a
// fresh coordinator (so a shard that fell back to local computation in
// one run is tried again in the next) that is detached before run
// returns, so post-run queries (Covers, Evaluate) resolve locally
// against the memo and cache, never over RPC.
func (o Options) run(ctx context.Context, task Task, res *Result, l *learn.Learner) error {
	start := time.Now()
	engine := l.Coverage()
	if so := o.Shard; so != nil {
		coord, err := shard.New(shard.Options{
			Shards:               so.shardFleet(),
			Fingerprint:          engineFingerprint(engine, task, res.Bias),
			RequestTimeout:       so.RequestTimeout,
			Retries:              so.Retries,
			DisableLocalFallback: so.DisableLocalFallback,
			Metrics:              res.metrics,
		})
		if err != nil {
			return err
		}
		coord.Bind(engine)
		defer func() {
			coord.Close()
			engine.SetTransport(nil)
		}()
	}
	def, stats, err := l.LearnCtx(ctx, task.Pos, task.Neg)
	if err != nil {
		return err
	}
	res.capture(engine, def, stats.Clauses, stats.TimedOut, stats.Cancelled, stats.Report)
	res.Elapsed = time.Since(start)
	return nil
}

// Result is the outcome of one learning run.
type Result struct {
	// Definition is the learned Horn definition (possibly empty).
	Definition *Definition
	// Bias is the language bias that was used (induced for
	// MethodAutoBias).
	Bias *Bias
	// Graph is the type graph behind an induced bias (MethodAutoBias
	// only).
	Graph *TypeGraph
	// Elapsed is the learning wall-clock (excluding bias induction,
	// reported separately as BiasTime to mirror §6.1's preprocessing
	// accounting).
	Elapsed time.Duration
	// BiasTime is the bias construction time (IND discovery + Algorithm 3
	// for MethodAutoBias; ~0 otherwise).
	BiasTime time.Duration
	// TimedOut reports that the run hit its deadline (Options.Timeout or
	// the caller's ctx); Cancelled that it was interrupted some other way
	// (e.g. SIGINT through LearnCtx). In both cases Definition holds the
	// clauses learned before the interruption — anytime semantics.
	TimedOut  bool
	Cancelled bool
	// Report records the run's degradation events; never nil after Learn.
	Report *Report
	// Clauses is the number of learned clauses.
	Clauses int
	// Metrics is the run's instrumentation snapshot (nil unless
	// Options.Metrics or Options.Collector was set). Result.Evaluate
	// refreshes it, so post-run scoring shows up too. Deterministic
	// counters are bit-identical at every worker count; gauges are not —
	// see the metrics package's determinism contract.
	Metrics *MetricsSnapshot

	covers  eval.CoverFunc
	db      *Database
	metrics *metrics.Collector
	// engine is the run's coverage engine, kept for post-run queries,
	// model capture (its effective options and intern table) and as the
	// state an incremental repair carries forward.
	engine *learn.CoverageEngine
}

// capture records a finished learner run on the result: the theory, how
// the run ended, and the engine that answers for it from here on.
func (r *Result) capture(engine *learn.CoverageEngine, def *Definition, clauses int, timedOut, cancelled bool, rep *Report) {
	r.Definition = def
	r.Clauses = clauses
	r.TimedOut = timedOut
	r.Cancelled = cancelled
	r.Report = rep
	r.covers = func(d *Definition, e Example) (bool, error) {
		return engine.DefinitionCovers(context.Background(), d, e)
	}
	r.engine = engine
}

// Degraded reports whether the run was interrupted or lost work it could
// not recover exactly (deadline hit, recovered panic, abandoned
// coverage). Exhausted subsumption budgets alone do not count — they are
// the paper's by-design approximation.
func (r *Result) Degraded() bool { return r.Report.Degraded() }

// BuildArtifact captures the run as a sealed model artifact: the learned
// theory and bias plus everything a serving process needs to reproduce
// this run's coverage verdicts exactly — the effective bottom-clause and
// subsumption options and the schema fingerprint (see internal/model).
// data names the training database so the server can rebind it; pass the
// zero value if the server will supply data itself. Served verdicts
// equal Covers' whenever the artifact is captured — before or after the
// queries they are compared with, from a complete run or an interrupted
// one.
func (r *Result) BuildArtifact(task Task, data ModelDataRef) (*ModelArtifact, error) {
	if r.engine == nil {
		return nil, fmt.Errorf("autobias: result has no coverage engine; only Learn results can be saved")
	}
	bopts := r.engine.Builder().Options()
	sopts := r.engine.SubsumeOptions()
	theory := ""
	if r.Definition != nil {
		theory = r.Definition.String()
	}
	art := &ModelArtifact{
		Version:     model.Version,
		Target:      task.Target,
		TargetAttrs: append([]string(nil), task.TargetAttrs...),
		Theory:      theory,
		Bias:        r.Bias.String(),
		Bottom: model.BottomConfig{
			Strategy:    bopts.Strategy.String(),
			Depth:       bopts.Depth,
			SampleSize:  bopts.SampleSize,
			MaxLiterals: bopts.MaxLiterals,
			Seed:        bopts.Seed,
		},
		Subsume: model.SubsumeConfig{
			MaxNodes: sopts.MaxNodes,
			Seed:     sopts.Seed,
		},
		SchemaFingerprint: model.Fingerprint(task.DB.Schema(), task.Target, task.TargetAttrs),
		Data:              data,
		DataVersion:       task.DB.Version(),
		// An interrupted run's theory is its anytime partial result.
		Degraded: r.TimedOut || r.Cancelled || r.Degraded(),
	}
	if err := art.Seal(); err != nil {
		return nil, err
	}
	return art, nil
}

// SaveModel writes the run's sealed artifact to path; see BuildArtifact.
func (r *Result) SaveModel(path string, task Task, data ModelDataRef) error {
	art, err := r.BuildArtifact(task, data)
	if err != nil {
		return err
	}
	return art.Save(path)
}

// Covers reports whether the learned definition covers the example,
// using the same ground-BC + θ-subsumption machinery as training.
func (r *Result) Covers(e Example) (bool, error) {
	return r.covers(r.Definition, e)
}

// Evaluate scores the result against held-out examples using the
// learner's own (sampled, subsumption-based) coverage — the paper's
// evaluation protocol. When the run was instrumented, the scoring is
// recorded too and Result.Metrics is refreshed.
func (r *Result) Evaluate(testPos, testNeg []Example) (Metrics, error) {
	m, err := eval.Evaluate(r.metrics, r.covers, r.Definition, testPos, testNeg)
	if r.metrics != nil {
		snap := r.metrics.Snapshot()
		r.Metrics = &snap
	}
	return m, err
}

// EvaluateExact scores the result with exact Datalog semantics (the §5
// baseline coverage method): each clause is θ-reduced once, then tested
// per example by θ-subsumption against the whole database, compiled once
// as a ground clause at the version this call pins. Free of the ground-BC
// sampling approximation; a search that exhausts its budget counts as
// "not covered".
func (r *Result) EvaluateExact(testPos, testNeg []Example) (Metrics, error) {
	eng := query.New(r.db, query.Options{})
	covers := func(d *Definition, e Example) (bool, error) {
		ok, err := eng.DefinitionCovers(d, e)
		if err == query.ErrBudget {
			return false, nil
		}
		return ok, err
	}
	reduced := &Definition{Target: r.Definition.Target}
	for _, c := range r.Definition.Clauses {
		reduced.Add(subsume.Reduce(c, subsume.Options{}))
	}
	return eval.Evaluate(nil, covers, reduced, testPos, testNeg)
}

// ExecuteClause runs one clause, θ-reduced, as a query over a database,
// returning up to limit derived head facts — what the rule predicts
// (unary heads).
func ExecuteClause(d *Database, c *Clause, limit int) ([]Example, error) {
	return query.New(d, query.Options{}).Bindings(subsume.Reduce(c, subsume.Options{}), limit, nil)
}

// BuildBias constructs the language bias a method would use, without
// learning. For MethodAutoBias it runs IND discovery and Algorithm 3 and
// also returns the type graph.
func BuildBias(task Task, opts Options) (*Bias, *TypeGraph, error) {
	b, graph, _, err := buildBiasFull(task, opts)
	return b, graph, err
}

// buildBiasFull is BuildBias keeping the INDs an induced bias was built
// from, for InduceBias.
func buildBiasFull(task Task, opts Options) (*Bias, *TypeGraph, []IND, error) {
	switch opts.method() {
	case MethodCastor:
		return bias.CastorDefault(task.DB.Schema(), task.Target, len(task.TargetAttrs)), nil, nil, nil
	case MethodNoConst:
		return bias.NoConstants(task.DB.Schema(), task.Target, len(task.TargetAttrs)), nil, nil, nil
	case MethodManual, MethodAleph:
		if task.Manual == nil {
			return nil, nil, nil, fmt.Errorf("autobias: method %s needs Task.Manual", opts.method())
		}
		return task.Manual, nil, nil, nil
	case MethodAutoBias:
		res, err := bias.Induce(task.DB, task.Target, task.TargetAttrs, examplesToTuples(task.Pos), bias.InduceOptions{
			INDs:        opts.INDs,
			ApproxError: opts.ApproxINDError,
			Threshold:   constantThreshold(opts),
			Metrics:     opts.Collector,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		return res.Bias, res.Graph, res.INDs, nil
	}
	return nil, nil, nil, fmt.Errorf("autobias: unknown method %q", opts.Method)
}

func constantThreshold(opts Options) bias.ConstantThreshold {
	if opts.ConstantThreshold <= 0 {
		return bias.DefaultConstantThreshold
	}
	return bias.ConstantThreshold{Value: opts.ConstantThreshold, Relative: true}
}

// Learn runs one learning run end to end: build (or induce) the bias,
// compile it, learn a definition, and return it with its coverage
// machinery attached.
func Learn(task Task, opts Options) (*Result, error) {
	return LearnCtx(context.Background(), task, opts)
}

// LearnCtx is Learn under a context. Cancelling ctx (or exceeding
// Options.Timeout, which bounds the learning phase) interrupts the run
// mid-primitive — inside an in-flight θ-subsumption search or
// bottom-clause construction — and returns the best theory learned so
// far with Result.TimedOut/Cancelled set and the degradation recorded in
// Result.Report. Interruption is a degraded success, not an error.
func LearnCtx(ctx context.Context, task Task, opts Options) (*Result, error) {
	mc := opts.collector()
	// The bias-induction path reads Options.Collector, so a run enabled
	// via the Metrics flag alone still lands its IND counters in mc.
	opts.Collector = mc
	res, l, err := opts.assemble(task, mc)
	if err != nil {
		return nil, err
	}
	if err := opts.run(ctx, task, res, l); err != nil {
		return nil, err
	}
	if mc != nil {
		snap := mc.Snapshot()
		res.Metrics = &snap
	}
	return res, nil
}

// NewShardWorker builds the shard-worker service for a distributed run
// under any Method: a coverage engine constructed from the same task and
// options as the coordinator's — same bias (induced or given), same
// effective bottom-clause and subsumption options — plus the config
// fingerprint that proves the parity on every RPC. The returned worker
// serves POST /v2/coverage (the batched frontier protocol) and the
// shared admin surface (GET /healthz, /readyz, /metrics, /debug/pprof/);
// run it with (*ShardWorker).Serve or mount
// (*ShardWorker).Handler yourself. See cmd/shardworker for the CLI.
func NewShardWorker(task Task, opts Options, id string, wopts ShardWorkerOptions) (*ShardWorker, error) {
	mc := opts.collector()
	opts.Collector = mc
	res, l, err := opts.assemble(task, mc)
	if err != nil {
		return nil, err
	}
	engine := l.Coverage()
	if wopts.Metrics == nil {
		wopts.Metrics = mc
	}
	return shard.NewWorker(id, engine, engineFingerprint(engine, task, res.Bias), wopts), nil
}

// DiscoverINDs runs Binder-style IND discovery over the database with
// the given approximate-error cutoff (§3.1); maxError 0 keeps only exact
// INDs. Cancellation aborts discovery with ctx's error and no partial
// result — half-validated inclusion counts would admit spurious INDs. mc
// (nil = disabled) receives the candidate/validated/pruned counters, the
// error-rate histogram, and the ind.discover span.
func DiscoverINDs(ctx context.Context, d *Database, maxError float64, mc *MetricsCollector) ([]IND, error) {
	return ind.DiscoverCtx(ctx, d, ind.Options{MaxError: maxError, Metrics: mc})
}

// InduceBias runs the full §3 pipeline (the paper's primary
// contribution) and returns the induced bias together with the type
// graph and the INDs it was built from.
func InduceBias(task Task, opts Options) (*Bias, *TypeGraph, []IND, error) {
	opts.Method = MethodAutoBias
	return buildBiasFull(task, opts)
}

// RenderTypeGraph prints a type graph in the style of the paper's
// Figure 1.
func RenderTypeGraph(g *TypeGraph, task Task) string {
	return g.Render(task.DB.Schema(), task.Target, task.TargetAttrs)
}

// CrossValidate runs k-fold cross validation of one method over a task,
// as in §6: learn on each fold's training split, score on its test
// split, and average. Folds are independent learning problems over the
// shared read-only database, so up to Options.Workers of them train
// concurrently; results are identical at every worker count.
func CrossValidate(task Task, opts Options, k int) (CVResult, error) {
	return CrossValidateCtx(context.Background(), task, opts, k)
}

// CrossValidateCtx is CrossValidate under a context: cancellation
// interrupts in-flight folds (each returns and scores its partial
// theory) and prevents new folds from starting.
func CrossValidateCtx(ctx context.Context, task Task, opts Options, k int) (CVResult, error) {
	folds, err := eval.KFold(task.Pos, task.Neg, k, opts.Seed+100)
	if err != nil {
		return CVResult{}, err
	}
	trainer := func(ctx context.Context, fold eval.Fold) (*Definition, eval.CoverFunc, eval.FoldOutcome, error) {
		sub := task
		sub.Pos, sub.Neg = fold.TrainPos, fold.TrainNeg
		res, err := LearnCtx(ctx, sub, opts)
		if err != nil {
			return nil, nil, eval.FoldOutcome{}, err
		}
		out := eval.FoldOutcome{Elapsed: res.Elapsed + res.BiasTime, TimedOut: res.TimedOut, Cancelled: res.Cancelled, Clauses: res.Clauses}
		return res.Definition, res.covers, out, nil
	}
	return eval.CrossValidate(ctx, folds, trainer, opts.Workers, opts.collector())
}

func examplesToTuples(examples []Example) []Tuple {
	out := make([]Tuple, len(examples))
	for i, e := range examples {
		t := make(Tuple, len(e.Terms))
		for j, term := range e.Terms {
			t[j] = term.Name
		}
		out[i] = t
	}
	return out
}
