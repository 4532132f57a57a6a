package autobias

import (
	"context"
	"fmt"
	"time"

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
	// IngestCommit summarizes one applied batch: its data version and
	// tuple counts. Repair does not read it: it checks the database.
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
	// held-out verdicts) to LearnCtx over the post-batch database with the
	// same options. When Unchanged is set it is the previous result, still
	// valid at the new data version.
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
	// BiasDrift reports that the post-batch data induce a different
	// language bias. Repair checks and replays under the new bias like
	// after any other commit; drift only turns off the Unchanged
	// shortcut.
	BiasDrift bool
	// FullRelearn is always false.
	//
	// Deprecated: repair never re-learns (DESIGN.md §16). The field stays
	// only while bench/liveloop.go reads it; the next benchmark PR deletes
	// that read and this field.
	FullRelearn bool
	// Unchanged reports that, under a stable bias, the check found no
	// dirty example and every verdict of the previous run belonged to an
	// example it checked (a verdict a shard worker resolved has no local
	// ground BC to compare), so the previous theory is returned as-is.
	// Never set under MethodAleph, whose search also reads the database's
	// value frequencies: it replays instead.
	Unchanged bool
	// Elapsed is the repair's wall-clock time, end to end.
	Elapsed time.Duration
}

// RepairCtx incrementally maintains a learned theory after a committed
// mutation batch (DESIGN.md §16), under any Method and any Sampling: it is
// LearnCtx plus carried state, the one covering loop replayed over the
// previous run's verdicts, whichever clause search runs in it. prev must
// be the result of LearnCtx (or a previous RepairCtx) over an earlier
// state of task.DB with these same opts; task must carry the same
// examples, with task.DB now in its post-batch state. commit is unread
// and deprecated — repair checks the database, not the commit — and
// stays only while bench/liveloop.go passes one; the next benchmark PR
// drops it.
//
// Contract (pinned by the repair differential suite): the returned
// result is semantically equivalent to LearnCtx on the database as it now
// stands — identical held-out verdicts, and a bit-identical theory.
// The mechanism, one path for every commit: assemble the learner as
// LearnCtx does, on the bias re-induced from scratch over the post-batch
// data, and re-run it with the previous run's interner, ground entries
// and coverage verdicts carried over, minus the examples whose ground
// bottom clause, rebuilt now, differs from the carried one. Every cached
// example is checked. A verdict depends on the clause and the ground BC,
// never on the bias, so that check is exact under every sampler, for any
// delta and across bias drift. The learner decides on coverage verdicts
// alone (the top-down search also re-reads value frequencies from the
// post-batch database), so the replay takes exactly the cold run's path
// while skipping its dominant cost.
func RepairCtx(ctx context.Context, prev *Result, task Task, commit IngestCommit, opts Options) (*Repair, error) {
	start := time.Now()
	mc := opts.collector()
	opts.Collector = mc
	mc.Inc(metrics.IngestRepairs)

	if prev == nil || prev.Definition == nil || prev.engine == nil {
		return nil, fmt.Errorf("autobias: repair needs a previous Learn result")
	}

	res, l, err := opts.assemble(task, mc)
	if err != nil {
		return nil, err
	}
	drift := res.Bias.String() != prev.Bias.String()
	engine := l.Coverage()

	// The one invalidation mechanism: adopt the previous run's coverage
	// state, minus what the rebuild check finds changed in the database.
	checkStart := mc.StartSpan()
	cs := prev.engine.ExtractCarried()
	dirty, flipped, err := engine.AdoptCarried(ctx, cs, prev.Definition.Clauses)
	mc.EndSpan(metrics.SpanRepairCheck, checkStart)
	if err != nil {
		return nil, err
	}
	mc.Add(metrics.IngestExamplesDirty, int64(len(dirty)))
	mc.Add(metrics.IngestClausesInvalidated, int64(len(flipped)))
	rep := &Repair{DirtyExamples: len(dirty), InvalidatedClauses: flipped, BiasDrift: drift}
	// The previous theory is what a re-learn finds only when the check saw
	// every verdict it rests on, unchanged, under the modes it was learned
	// with. The FOIL search also reads the live database besides its
	// verdicts — the most frequent values of every # attribute, which a
	// tuple in no example's BC can reorder or displace — so under
	// MethodAleph a clean check still replays: every verdict carried, the
	// search re-run on the post-batch data.
	rep.Unchanged = len(dirty) == 0 && cs.Unchecked == 0 && !drift && opts.method() != MethodAleph
	if rep.Unchanged {
		rep.Result = prev
	} else {
		// Every carried verdict reproduces a decision input the cold run
		// would recompute, so the replay's decision sequence — and therefore
		// the order its seed clauses are built in and its theory — is the
		// cold run's, bit for bit.
		replayStart := mc.StartSpan()
		if err := opts.run(ctx, task, res, l); err != nil {
			return nil, err
		}
		mc.EndSpan(metrics.SpanRepairReplay, replayStart)
		rep.Result = res
		rep.CarriedHits = engine.CarriedHits()
	}
	rep.Elapsed = time.Since(start)
	if mc != nil {
		snap := mc.Snapshot()
		rep.Result.Metrics = &snap
	}
	return rep, nil
}
