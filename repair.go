package autobias

import (
	"context"
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/faultpoint"
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
	// DirtyExamples counts examples whose ground bottom clause actually
	// changed on the post-batch database (the value-level invalidation
	// screen narrowed by the BC rebuild check); only these examples'
	// verdicts are recomputed during the replay.
	DirtyExamples int
	// InvalidatedClauses lists previously learned clauses whose coverage
	// over the dirty examples actually changed.
	InvalidatedClauses []string
	// CarriedHits counts the distinct carried (clause, example) verdicts
	// the replay consumed — each one a ground-BC fetch and subsumption
	// test repair avoided. Clauses equal up to variable renaming share one
	// store record, so a verdict read through several of them counts once.
	CarriedHits int64
	// BiasDrift reports that the refreshed INDs induced a different
	// language bias, forcing the full re-learn path.
	BiasDrift bool
	// FullRelearn reports that the repair fell back to a from-scratch
	// re-learn; FullRelearnReason names which of the five conditions
	// forced it.
	FullRelearn bool
	// FullRelearnReason is empty on the repair path and otherwise one of
	// the FullRelearn* constants, also counted by the
	// ingest.full_relearn.<reason> gauge.
	FullRelearnReason string
	// Unchanged reports the fast path: no dirty examples and no bias
	// drift, so the previous theory is returned as-is. Never set under
	// MethodAleph, whose search also reads the database's value
	// frequencies: it replays instead.
	Unchanged bool
	// Elapsed is the repair's wall-clock time, end to end.
	Elapsed time.Duration
}

// Why a repair fell back to a full re-learn (Repair.FullRelearnReason),
// in the order RepairCtx checks them.
const (
	// FullRelearnVersionSkew: other batches landed since this commit, so
	// its change summary understates the real delta.
	FullRelearnVersionSkew = "version_skew"
	// FullRelearnNoSummary: the commit applied tuples but carries no
	// change summary (e.g. a partially rehydrated wire commit).
	FullRelearnNoSummary = "no_summary"
	// FullRelearnNoPrevINDs: the previous result kept no INDs to refresh.
	FullRelearnNoPrevINDs = "no_prev_inds"
	// FullRelearnBiasDrift: the refreshed INDs induce a different bias.
	FullRelearnBiasDrift = "bias_drift"
	// FullRelearnNonNaiveSampling: the invalidation screen is only sound
	// under naive sampling.
	FullRelearnNonNaiveSampling = "non_naive_sampling"
)

// RepairCtx incrementally maintains a learned theory after a committed
// mutation batch (DESIGN.md §16), under any Method: the replay is the one
// covering loop over carried verdicts, whichever clause search runs in
// it. prev must be the result of LearnCtx
// (or a previous RepairCtx) over the pre-batch database with these same
// opts; task must carry the same examples, with task.DB now in its
// post-batch state; commit is the batch's change summary from
// Ingestor.Apply.
//
// Contract (pinned by the repair differential suite): the returned
// result is semantically equivalent to LearnCtx on the post-batch
// database — identical held-out verdicts, and a bit-identical theory
// when the repair path runs (no fallback). The mechanism: refresh the
// INDs incrementally, re-induce the bias and compare; when the bias is
// stable, re-run the learner with the previous run's interner, ground
// entries, and coverage verdicts carried over, minus the examples the
// batch could have perturbed. The covering loop and the bottom-up search
// decide on coverage verdicts alone, and the top-down search on verdicts
// plus value frequencies it re-reads from the post-batch database, so
// the replay takes exactly the cold run's path while skipping its
// dominant cost.
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

	fullRelearn := func(inds []IND, reason string) (*Repair, error) {
		if inds != nil {
			opts.INDs = inds
		}
		res, err := LearnCtx(ctx, task, opts)
		if err != nil {
			return nil, err
		}
		mc.AddNamedGauge("ingest.full_relearn."+reason, 1)
		return finish(&Repair{Result: res, BiasDrift: reason == FullRelearnBiasDrift, FullRelearn: true, FullRelearnReason: reason}), nil
	}

	// Defensive fallbacks for commits that cannot drive the invalidation
	// probe soundly. A version skew means other batches have landed since
	// this commit (its Values/Touched understate the real delta), and a
	// commit that applied tuples but carries no change summary (e.g. a
	// partially rehydrated wire commit) gives the probe nothing to screen
	// with. Both degrade to a full re-learn, which is correct for
	// whatever state the database now holds. Commits observed through
	// Ingestor.ApplyAndNotify never skew: the hook runs under the commit
	// lock.
	if task.DB.Version() != commit.Version {
		return fullRelearn(nil, FullRelearnVersionSkew)
	}
	if commit.Inserted+commit.Deleted > 0 && (len(commit.Touched) == 0 || len(commit.Values) == 0) {
		return fullRelearn(nil, FullRelearnNoSummary)
	}

	// Refresh the INDs and re-induce the bias; a changed bias invalidates
	// every mode the learner searched under, so drift forces the full
	// re-learn path (with the refreshed INDs reused).
	var inds []IND
	if opts.method() == MethodAutoBias {
		if prev.INDs == nil {
			return fullRelearn(nil, FullRelearnNoPrevINDs)
		}
		ext, err := db.Extend(task.DB, task.Target, task.TargetAttrs, examplesToTuples(task.Pos))
		if err != nil {
			return nil, err
		}
		approx := opts.ApproxINDError
		if approx <= 0 {
			approx = 0.5 // bias.InduceOptions' default cutoff
		}
		inds, err = ind.Refresh(ctx, ext, prev.INDs, commit.Touched, ind.Options{MaxError: approx, Metrics: mc})
		if err != nil {
			return nil, err
		}
		opts.INDs = inds
	}
	b, graph, inds, err := buildBiasFull(task, opts)
	if err != nil {
		return nil, err
	}
	if prev.Bias == nil || b.String() != prev.Bias.String() {
		return fullRelearn(inds, FullRelearnBiasDrift)
	}

	// The invalidation probe is only sound under naive sampling (the
	// other strategies consult relation-wide statistics any mutation can
	// shift).
	if opts.Sampling != SamplingNaive {
		return fullRelearn(inds, FullRelearnNonNaiveSampling)
	}

	candidates := prev.engine.AffectedExamples(commit.Values)
	rep := &Repair{}
	// The FOIL search reads the live database besides its verdicts — the
	// most frequent values of every # attribute, which a tuple in no
	// example's BC can reorder or displace — so under MethodAleph an empty
	// candidate set still replays: every verdict carried, the search re-run
	// on the post-batch data.
	if len(candidates) == 0 && opts.method() != MethodAleph {
		// Fast path: no cached example's BC can differ, no bias drift —
		// the previous theory is exactly what a re-learn would produce.
		rep.Result = prev
		rep.Unchanged = true
		return finish(rep), nil
	}

	cs := prev.engine.ExtractCarried()

	compiled, err := b.Compile(task.DB.Schema(), task.Target, len(task.TargetAttrs))
	if err != nil {
		return nil, err
	}
	res := &Result{Bias: b, Graph: graph, INDs: inds, db: task.DB, metrics: mc}
	l := opts.newLearner(task.DB, compiled, mc)
	engine := l.Coverage()

	// Narrow the value-level candidate set to the examples whose ground
	// BC actually changed: rebuild each candidate's BC on the post-batch
	// database and keep carried verdicts when it is bit-identical (a
	// verdict is a pure function of clause and BC). Common constant
	// values can mark most of the corpus as possibly-affected while the
	// batch changes almost nothing — the rebuild check is what keeps a
	// small batch's repair cost proportional to its real blast radius.
	byKey := make(map[string]Example, len(task.Pos)+len(task.Neg))
	for _, e := range task.Pos {
		byKey[e.String()] = e
	}
	for _, e := range task.Neg {
		byKey[e.String()] = e
	}
	dirty, err := engine.StaleExamples(ctx, cs, candidates, byKey)
	if err != nil {
		return nil, err
	}
	mc.Add(metrics.IngestExamplesDirty, int64(len(dirty)))
	rep.DirtyExamples = len(dirty)

	// Detect which previously learned clauses the batch actually
	// invalidated: re-test each against the dirty examples on the
	// post-batch database and compare to the carried verdicts before they
	// are dropped. The probe is a second engine assembled exactly like the
	// repair engine — the same effective node budget the carried verdicts
	// were searched under, so a verdict can only differ because the data
	// did — minus the collector: probe tests are not part of the run the
	// counters describe.
	probe := opts.newLearner(task.DB, compiled, nil).Coverage()
	for _, c := range prev.Definition.Clauses {
		ck := c.Key()
		if err := faultpoint.Inject(ctx, "ingest.repair:"+ck); err != nil {
			return nil, err
		}
		changed := false
		for _, ek := range dirty {
			e, ok := byKey[ek]
			if !ok {
				continue // cached from post-run queries; not a training example
			}
			old, had := cs.Verdict(ck, ek)
			if !had {
				continue
			}
			now, err := probe.Covers(ctx, c, e)
			if err != nil {
				return nil, err
			}
			if now != old {
				changed = true
			}
		}
		if changed {
			mc.Inc(metrics.IngestClausesInvalidated)
			rep.InvalidatedClauses = append(rep.InvalidatedClauses, ck)
		}
	}

	// Drop everything the batch actually perturbed, install the rest on
	// the fresh engine, and replay the learner. Every carried verdict
	// reproduces a decision input the cold run would recompute, so the
	// replay's decision sequence — and therefore the order its seed
	// clauses are built in and its theory — is the cold run's, bit for
	// bit.
	cs.DropExamples(dirty)
	engine.AdoptCarried(cs)

	detach, err := opts.bindShards(engine, task, b, mc, commit.Version)
	if err != nil {
		return nil, err
	}
	defer detach()

	learnStart := time.Now()
	def, stats, err := l.LearnCtx(ctx, task.Pos, task.Neg)
	if err != nil {
		return nil, err
	}
	res.capture(engine, def, stats.Clauses, stats.TimedOut, stats.Cancelled, stats.Report)
	res.Elapsed = time.Since(learnStart)
	rep.Result = res
	rep.CarriedHits = engine.CarriedHits()
	mc.SetNamedGauge("ingest.carried_hits", rep.CarriedHits)
	return finish(rep), nil
}
