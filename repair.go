package autobias

import (
	"context"
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/ind"
	"repro/internal/ingest"
	"repro/internal/metrics"
)

// Ingest-layer re-exports, so live-learner binaries need only this
// package.
type (
	// Ingestor applies mutation batches to a database, assigning each
	// committed batch a monotonically increasing data version.
	Ingestor = ingest.Ingestor
	// IngestBatch is an ordered set of tuple mutations committed
	// atomically under one data version.
	IngestBatch = ingest.Batch
	// IngestMutation is one tuple insert or delete.
	IngestMutation = ingest.Mutation
	// IngestCommit summarizes one applied batch: its data version and the
	// change summary incremental repair consumes.
	IngestCommit = ingest.Commit
	// IngestServer is the ingest subsystem's HTTP surface.
	IngestServer = ingest.Server
)

// Ingest mutation verbs.
const (
	IngestInsert = ingest.OpInsert
	IngestDelete = ingest.OpDelete
)

// NewIngestor returns an ingestor over d; mc may be nil.
func NewIngestor(d *Database, mc *MetricsCollector) *Ingestor { return ingest.New(d, mc) }

// NewIngestServer returns the HTTP surface over ing admitting up to
// maxInflight concurrent requests.
func NewIngestServer(ing *Ingestor, maxInflight int) *IngestServer {
	return ingest.NewServer(ing, maxInflight)
}

// Repair is the outcome of one incremental theory maintenance step.
type Repair struct {
	// Result is the post-batch learning result: bit-identical (theory and
	// held-out verdicts) to a full re-learn over the post-batch database
	// with the same options. When Unchanged is set it is the previous
	// result, still valid at the new data version.
	Result *Result
	// DirtyExamples counts cached examples whose ground bottom clause
	// actually changed on the post-batch database (the exact rebuild
	// check); only these examples' verdicts are recomputed.
	DirtyExamples int
	// InvalidatedClauses lists previously learned clauses whose coverage
	// over the dirty examples actually changed.
	InvalidatedClauses []string
	// CarriedHits counts the distinct carried (clause, example) verdicts
	// the replay consumed — each one a ground-BC fetch and subsumption
	// test repair avoided. Clauses equal up to variable renaming share one
	// store record, so a verdict read through several of them counts once.
	CarriedHits int64
	// BiasDrift reports that the post-batch INDs induce a different
	// language bias — the one condition repair answers with a
	// from-scratch re-learn, counted by the ingest.full_relearn.bias_drift
	// gauge.
	BiasDrift bool
	// FullRelearn reports that the repair re-learned from scratch. Bias
	// drift is the only cause, so it equals BiasDrift.
	FullRelearn bool
	// Unchanged reports that the check found no dirty example under a
	// stable bias, so the previous theory is returned as-is. Never set
	// under MethodAleph, whose search also reads the database's value
	// frequencies: it replays instead.
	Unchanged bool
	// Elapsed is the repair's wall-clock time, end to end.
	Elapsed time.Duration
}

// RepairCtx incrementally maintains a learned theory after a committed
// mutation batch (DESIGN.md §16), under any Method and any Sampling: the
// replay is the one covering loop over carried verdicts, whichever clause
// search runs in it. prev must be the result of LearnCtx (or a previous
// RepairCtx) over an earlier state of task.DB with these same opts; task
// must carry the same examples, with task.DB now in its post-batch
// state; commit is the batch's change summary from Ingestor.Apply.
//
// Contract (pinned by the repair differential suite): the returned
// result is semantically equivalent to LearnCtx on the database as it now
// stands — identical held-out verdicts, and a bit-identical theory.
// The mechanism: re-induce the bias and compare; when it is stable,
// re-run the learner with the previous run's interner, ground entries
// and coverage verdicts carried over, minus the examples whose ground
// bottom clause, rebuilt on the new data, differs from the carried one.
// That check is exact under every sampler and for any delta, so commit
// only selects optimisations: one that is trusted — at the database's
// version, with its change summary, prev holding INDs to refresh —
// refreshes the INDs incrementally and, under naive sampling, screens
// which examples need the check at all; anything else rediscovers the
// INDs and checks every cached example. The covering loop and the
// bottom-up search decide on coverage verdicts alone, and the top-down
// search on verdicts plus value frequencies it re-reads from the
// post-batch database, so the replay takes exactly the cold run's path
// while skipping its dominant cost.
func RepairCtx(ctx context.Context, prev *Result, task Task, commit IngestCommit, opts Options) (*Repair, error) {
	start := time.Now()
	mc := opts.collector()
	opts.Collector = mc
	mc.Inc(metrics.IngestRepairs)

	if prev == nil || prev.Definition == nil || prev.engine == nil {
		return nil, fmt.Errorf("autobias: repair needs a previous Learn result")
	}

	finish := func(rep *Repair) *Repair {
		rep.Elapsed = time.Since(start)
		if prev.Elapsed > rep.Elapsed {
			mc.SetNamedGauge("ingest.repair_saved_ns", int64(prev.Elapsed-rep.Elapsed))
		}
		if mc != nil && rep.Result != nil {
			snap := mc.Snapshot()
			rep.Result.Metrics = &snap
		}
		return rep
	}

	// Commits observed through Ingestor.ApplyAndNotify are always at the
	// database's version: the hook runs under the commit lock.
	induced := opts.method() == MethodAutoBias
	trusted := task.DB.Version() == commit.Version &&
		(commit.Inserted+commit.Deleted == 0 || len(commit.Relations) > 0 && len(commit.Values) > 0) &&
		(!induced || prev.INDs != nil)

	// Re-induce the bias — over incrementally refreshed INDs when the
	// commit says which relations to re-validate — and compare; a changed
	// bias invalidates every mode the learner searched under.
	if induced && trusted {
		ext, err := db.Extend(task.DB, task.Target, task.TargetAttrs, examplesToTuples(task.Pos))
		if err != nil {
			return nil, err
		}
		approx := opts.ApproxINDError
		if approx <= 0 {
			approx = 0.5 // bias.InduceOptions' default cutoff
		}
		opts.INDs, err = ind.Refresh(ctx, ext, prev.INDs, commit.Relations, ind.Options{MaxError: approx, Metrics: mc})
		if err != nil {
			return nil, err
		}
	}
	b, graph, inds, err := buildBiasFull(task, opts)
	if err != nil {
		return nil, err
	}
	if prev.Bias == nil || b.String() != prev.Bias.String() {
		opts.INDs = inds
		res, err := LearnCtx(ctx, task, opts)
		if err != nil {
			return nil, err
		}
		mc.AddNamedGauge("ingest.full_relearn.bias_drift", 1)
		return finish(&Repair{Result: res, BiasDrift: true, FullRelearn: true}), nil
	}

	compiled, err := b.Compile(task.DB.Schema(), task.Target, len(task.TargetAttrs))
	if err != nil {
		return nil, err
	}
	l := opts.newLearner(task.DB, compiled, mc)
	engine := l.Coverage()

	// The one invalidation mechanism: adopt the previous run's coverage
	// state, minus what the rebuild check finds changed. Common constant
	// values can pass most of the corpus through the screen while the
	// batch changes almost nothing; the check is what keeps a repair's
	// cost proportional to the batch's real blast radius.
	checkStart := mc.StartSpan()
	cs := prev.engine.ExtractCarried()
	candidates := cs.AffectedExamples(commit.Values, trusted && opts.Sampling == SamplingNaive)
	dirty, flipped, err := engine.AdoptCarried(ctx, cs, candidates, prev.Definition.Clauses)
	mc.EndSpan(metrics.SpanRepairCheck, checkStart)
	if err != nil {
		return nil, err
	}
	mc.AddNamedGauge("ingest.examples_checked", int64(len(candidates)))
	mc.Add(metrics.IngestExamplesDirty, int64(len(dirty)))
	mc.Add(metrics.IngestClausesInvalidated, int64(len(flipped)))
	rep := &Repair{DirtyExamples: len(dirty), InvalidatedClauses: flipped}
	// The FOIL search reads the live database besides its verdicts — the
	// most frequent values of every # attribute, which a tuple in no
	// example's BC can reorder or displace — so under MethodAleph a clean
	// check still replays: every verdict carried, the search re-run on the
	// post-batch data.
	if len(dirty) == 0 && opts.method() != MethodAleph {
		rep.Result = prev
		rep.Unchanged = true
		return finish(rep), nil
	}

	// Every carried verdict reproduces a decision input the cold run would
	// recompute, so the replay's decision sequence — and therefore the
	// order its seed clauses are built in and its theory — is the cold
	// run's, bit for bit.
	detach, err := opts.bindShards(engine, task, b, mc, task.DB.Version())
	if err != nil {
		return nil, err
	}
	defer detach()

	replayStart := time.Now()
	def, stats, err := l.LearnCtx(ctx, task.Pos, task.Neg)
	if err != nil {
		return nil, err
	}
	mc.EndSpan(metrics.SpanRepairReplay, replayStart)
	res := &Result{Bias: b, Graph: graph, INDs: inds, db: task.DB, metrics: mc}
	res.capture(engine, def, stats.Clauses, stats.TimedOut, stats.Cancelled, stats.Report)
	res.Elapsed = time.Since(replayStart)
	rep.Result = res
	rep.CarriedHits = engine.CarriedHits()
	mc.SetNamedGauge("ingest.carried_hits", rep.CarriedHits)
	return finish(rep), nil
}
