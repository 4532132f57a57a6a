package learn

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/bias"
	"repro/internal/bottom"
	"repro/internal/db"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/subsume"
)

// ClauseSearch is LearnClause of Algorithm 1 (§2.3), the covering loop's
// one pluggable step: propose a clause from the uncovered positives, or
// nil when none can be built. Everything around it — the budget and its
// classification, the minimum criterion, covered-positive removal, the
// final accounting — is the Learner's, and a search reaches coverage
// only through the Learner (ScoringSamples, Evaluate), so sharding, the
// repair replay and the worker pool treat every search alike. A ctx
// error return means the budget interrupted the search: every
// interruption reaches LearnCtx as an error, never as a quietly
// shortened clause.
type ClauseSearch interface {
	LearnClause(ctx context.Context, l *Learner, uncovered, neg []Example) (*logic.Clause, error)
}

// The beam search's fixed limits.
const (
	// generalizeSample is |E+_S|: how many positive examples are drawn to
	// generalize against per round.
	generalizeSample = 10
	// maxRounds caps beam-search rounds per clause.
	maxRounds = 10
)

// Options configures the learner.
type Options struct {
	// Bottom configures BC construction (strategy, depth, sample size).
	Bottom bottom.Options
	// Subsume bounds coverage tests.
	Subsume subsume.Options
	// Search is the clause search the covering loop runs; nil selects the
	// bottom-up armg beam with negative reduction (Castor's, §2.3), the
	// only search BeamWidth, generalizeSample and maxRounds apply to.
	Search ClauseSearch
	// BeamWidth is the number of clauses kept per generalization round;
	// <=0 defaults to 3.
	BeamWidth int
	// EvalSampleCap bounds how many positive and negative examples score
	// each candidate clause (coverage testing dominates learning time,
	// §5); <=0 defaults to 200 of each.
	EvalSampleCap int
	// MinPrecision is the minimum clause precision pos/(pos+neg) on the
	// scoring sample; <=0 defaults to 0.7.
	MinPrecision float64
	// Timeout bounds total learning wall-clock; 0 means no limit. A
	// timed-out run returns the clauses learned so far with
	// Stats.TimedOut set — this reproduces the paper's ">10h" rows.
	Timeout time.Duration
	// Seed drives example sampling; 0 selects a fixed default.
	Seed int64
	// Workers bounds the coverage engine's worker pool (§5's dominant
	// cost is the per-example subsumption tests, which are independent
	// and fan out). <=0 defaults to runtime.GOMAXPROCS(0); 1 runs the
	// exact sequential path. Learned definitions are identical at every
	// worker count: see CoverageEngine for the determinism argument.
	Workers int
	// Metrics, when non-nil, collects the run's instrumentation; New
	// threads it through the bottom builder, the coverage engine, and
	// subsumption. Nil disables collection at zero cost.
	Metrics *metrics.Collector
}

func (o Options) normalized() Options {
	if o.Search == nil {
		o.Search = beamSearch{}
	}
	if o.BeamWidth <= 0 {
		o.BeamWidth = 3
	}
	if o.EvalSampleCap <= 0 {
		o.EvalSampleCap = 200
	}
	if o.MinPrecision <= 0 {
		o.MinPrecision = 0.7
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Subsume.MaxNodes <= 0 {
		// Coverage and armg run thousands of subsumption tests per
		// learned clause; proving non-coverage exhausts whatever budget
		// it is given, so the default is deliberately tight (§5 uses
		// approximation for exactly this reason).
		o.Subsume.MaxNodes = 5000
	}
	return o
}

// Stats reports how a learning run ended. What it did — rounds,
// candidates, coverage tests, wall-clock — is counted once, by
// Options.Metrics (learn.rounds, learn.candidates, coverage.tests, the
// learn.run span); the clause count is the definition's Len.
type Stats struct {
	// TimedOut reports the run hit its deadline (Options.Timeout or the
	// caller's ctx deadline); Cancelled reports a non-deadline
	// cancellation (e.g. SIGINT). Either way the returned definition is
	// the best theory learned so far — anytime semantics.
	TimedOut  bool
	Cancelled bool
	// Report records every event that changed the run (deadline hits,
	// recovered panics, abandoned coverage counts and builds, shard
	// recoveries). Never nil.
	Report *report.Report
	// PositivesCovered is how many training positives the final
	// definition covers, counted once the loop has ended; an interrupted
	// run reports what it had counted by then.
	PositivesCovered int
}

// Learner learns Horn definitions of one target relation with the
// sequential covering algorithm the paper builds on (Algorithm 1, §2.3):
// the one covering loop, whichever clause search Options.Search plugs
// into it.
type Learner struct {
	bias  *bias.Compiled
	opts  Options
	cover *CoverageEngine
	rng   *rand.Rand
	// stats is the current run's outcome; the covering loop and a clause
	// search record events on its Report.
	stats *Stats
}

// New creates a learner over a database and compiled language bias.
func New(d *db.Database, c *bias.Compiled, opts Options) *Learner {
	opts = opts.normalized()
	if opts.Metrics != nil {
		opts.Bottom.Metrics = opts.Metrics
		opts.Subsume.Metrics = opts.Metrics
	}
	builder := bottom.NewBuilder(d, c, opts.Bottom)
	cover := NewCoverage(builder, opts.Subsume)
	cover.SetWorkers(opts.Workers)
	if opts.Metrics != nil {
		cover.SetMetrics(opts.Metrics)
	}
	return &Learner{
		bias:  c,
		opts:  opts,
		cover: cover,
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}
}

// Coverage exposes the learner's coverage engine (for evaluation against
// held-out examples with the same ground-BC machinery).
func (l *Learner) Coverage() *CoverageEngine { return l.cover }

// Learn runs Algorithm 1 under Options.Timeout alone.
func (l *Learner) Learn(pos, neg []Example) (*logic.Definition, *Stats, error) {
	return l.LearnCtx(context.Background(), pos, neg)
}

// LearnCtx runs Algorithm 1: repeatedly learn one clause from the
// uncovered positives, keep it if it meets the minimum criterion, and
// remove the positives it covers. Seeds whose clauses fail the criterion
// are set aside so the loop always progresses.
//
// ctx (tightened by Options.Timeout when set) is threaded through
// coverage, BC construction and subsumption and cancels the run
// mid-primitive — a budget overrun is bounded by a few hundred
// subsumption nodes, not by a coverage test or a beam round (§6's ">10h"
// budgets need faithful enforcement). The clauses learned so far are
// returned with Stats.TimedOut/Cancelled set and the degradation
// recorded in Stats.Report: cancellation is graceful, not an error.
func (l *Learner) LearnCtx(ctx context.Context, pos, neg []Example) (*logic.Definition, *Stats, error) {
	spanStart := l.opts.Metrics.StartSpan()
	defer l.opts.Metrics.EndSpan(metrics.SpanLearn, spanStart)
	if l.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, l.opts.Timeout)
		defer cancel()
	}
	l.stats = &Stats{Report: report.New()}
	l.cover.SetReport(l.stats.Report)
	def := &logic.Definition{Target: l.bias.Target()}

	where, err := l.covering(ctx, def, pos, neg)
	if err != nil && !isCtxErr(err) {
		return nil, nil, err
	}
	if err != nil {
		l.noteStop(ctx, where, def.Len())
	}
	return def, l.stats, nil
}

// covering is the loop of Algorithm 1 and the accounting after it, adding
// kept clauses to def. An error — the budget's (a ctx error: the caller
// keeps the theory so far) or a real one — comes back with the phase it
// stopped.
func (l *Learner) covering(ctx context.Context, def *logic.Definition, pos, neg []Example) (where string, err error) {
	minPos := 2 // Algorithm 1's minimum criterion, in sampled uncovered positives
	if len(pos) < 10 {
		minPos = 1
	}
	uncovered := append([]Example(nil), pos...)
	for len(uncovered) > 0 {
		if err := ctx.Err(); err != nil {
			return "covering loop", err
		}
		clause, err := l.opts.Search.LearnClause(ctx, l, uncovered, neg)
		if err != nil {
			return "learnClause", err
		}
		keep := false
		if clause != nil {
			posSample, negSample := l.ScoringSamples(uncovered, neg)
			ps, ns, err := l.counts(ctx, []*logic.Clause{clause}, posSample, negSample, 0)
			if err != nil {
				return "minimum-criterion scoring", err
			}
			prec := 1.0
			if ps[0]+ns[0] > 0 {
				prec = float64(ps[0]) / float64(ps[0]+ns[0])
			}
			keep = ps[0] >= minPos && prec >= l.opts.MinPrecision
		}
		if !keep {
			// Set the seed aside and try the next one.
			uncovered = uncovered[1:]
			continue
		}
		def.Add(clause)
		l.opts.Metrics.Inc(metrics.LearnClauses)
		// Remove every positive the definition now covers.
		covered, err := l.cover.resolve(ctx, nil, []*logic.Clause{clause}, uncovered)
		if err != nil {
			return "covered-positive removal", err
		}
		var still []Example
		for j, e := range uncovered {
			if !covered[0][j] {
				still = append(still, e)
			}
		}
		uncovered = still
	}
	for _, e := range pos {
		ok, err := l.cover.DefinitionCovers(ctx, def, e)
		if err != nil {
			return "final coverage accounting", err
		}
		if ok {
			l.stats.PositivesCovered++
		}
	}
	return "final coverage accounting", nil
}

// noteStop is the one place an interrupted run is classified — deadline
// or explicit cancel — and its one deadline-hit event recorded.
func (l *Learner) noteStop(ctx context.Context, where string, clauses int) {
	if ctx.Err() == context.DeadlineExceeded {
		l.stats.TimedOut = true
	} else {
		l.stats.Cancelled = true
	}
	l.stats.Report.Add(report.Event{
		Kind:   report.DeadlineHit,
		Site:   "learn.Learn",
		Detail: fmt.Sprintf("interrupted during %s (%v); returning %d clause(s) learned so far", where, ctx.Err(), clauses),
	})
}

// beamSearch is the bottom-up LearnClause of §2.3: build the bottom
// clause of the first uncovered positive, then beam-search over armg
// generalizations against sampled positives, scoring by pos − neg
// coverage, and reduce the winner against the negatives.
//
// The seed's variabilized clause is the one build that runs on the
// engine's builder itself rather than a per-example clone: its sample
// follows the covering loop's seed order, which is a function of the
// verdicts alone, and no ground build ever draws from that RNG. A panic
// in it is isolated to the seed: no clause, and the seed is set aside.
type beamSearch struct{}

func (beamSearch) LearnClause(ctx context.Context, l *Learner, pos, neg []Example) (*logic.Clause, error) {
	seed := pos[0]
	var bc *logic.Clause
	err := l.cover.isolate("bottom.construct", seed.String(), func() (err error) {
		bc, err = l.cover.builder.ConstructCtx(ctx, seed)
		return err
	})
	switch {
	case isCtxErr(err):
		l.stats.Report.Add(report.Event{Kind: report.BottomAbandoned, Site: "bottom.construct", Example: seed.String()})
		return nil, err
	case err != nil:
		return nil, fmt.Errorf("learn: %w", err)
	case bc == nil:
		return nil, nil
	}
	bc = bc.PruneNotHeadConnected()

	posSample, negSample := l.ScoringSamples(pos, neg)

	evaluate := func(cs []*logic.Clause) ([]scored, error) {
		ps, ns, err := l.Evaluate(ctx, cs, posSample, negSample, 0)
		if err != nil {
			return nil, err
		}
		out := make([]scored, len(cs))
		for i, c := range cs {
			out[i] = scored{clause: c, score: ps[i] - ns[i], key: l.cover.record(c).key}
		}
		return out, nil
	}

	first, err := evaluate([]*logic.Clause{bc})
	if err != nil {
		return nil, err
	}
	best := first[0]
	beam := []scored{best}
	seen := map[*clauseRecord]bool{l.cover.record(bc): true}

	stale := 0
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		l.NoteRound()
		sample := l.sampleExamples(pos, generalizeSample)
		// Generate the round's whole candidate frontier first — the beam ×
		// sample armg applications, fanned across the engine's pool —
		// dedup by store record (one per canonical key) in (beam, sample)
		// order, then score it in one batched evaluation.
		beamClauses := make([]*logic.Clause, len(beam))
		for i, b := range beam {
			beamClauses[i] = b.clause
		}
		generalized, err := l.cover.GeneralizeManyCtx(ctx, beamClauses, sample)
		if err != nil {
			return nil, err
		}
		var fresh []*logic.Clause
		for _, cand := range generalized {
			if cand == nil || len(cand.Body) == 0 {
				continue
			}
			rec := l.cover.record(cand)
			if seen[rec] {
				continue
			}
			seen[rec] = true
			fresh = append(fresh, cand)
		}
		candidates, err := evaluate(fresh)
		if err != nil {
			return nil, err
		}
		if len(candidates) == 0 {
			break
		}
		// Merge beam and candidates, keep the top BeamWidth. Stable
		// preference: higher score first, then shorter clause.
		all := append(beam, candidates...)
		sortScored(all)
		if len(all) > l.opts.BeamWidth {
			all = all[:l.opts.BeamWidth]
		}
		improved := all[0].score > best.score
		beam = all
		if improved {
			best = all[0]
			stale = 0
		} else {
			// One grace round: ties often hide a more general clause one
			// armg application away (the beam keeps equal-score shorter
			// clauses first).
			stale++
			if stale >= 2 {
				break
			}
		}
	}
	return l.reduceClause(ctx, best.clause, negSample)
}

// reduceClause performs negative-based reduction (Castor [44]): drop
// every body literal whose removal does not increase coverage of
// negatives. Removal only generalizes, so positive coverage never drops;
// the surviving literals are the ones actually needed to keep the
// negatives out, which keeps learned clauses short and able to
// generalize past the training seeds. A ctx error return means the
// budget interrupted the reduction, like the search before it.
func (l *Learner) reduceClause(ctx context.Context, c *logic.Clause, negSample []Example) (*logic.Clause, error) {
	if len(c.Body) <= 1 {
		return c, nil
	}
	baseNeg, err := l.count(ctx, c, negSample)
	if err != nil {
		return nil, err
	}
	body := append([]logic.Literal(nil), c.Body...)
	for i := len(body) - 1; i >= 0 && len(body) > 1; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		trialBody := make([]logic.Literal, 0, len(body)-1)
		trialBody = append(trialBody, body[:i]...)
		trialBody = append(trialBody, body[i+1:]...)
		trial := (&logic.Clause{Head: c.Head, Body: trialBody}).PruneNotHeadConnected()
		if len(trial.Body) == 0 {
			continue
		}
		n, err := l.count(ctx, trial, negSample)
		if err != nil {
			return nil, err
		}
		if n <= baseNeg {
			body = trial.Body
			baseNeg = n
			if i > len(body) {
				i = len(body)
			}
		}
	}
	return (&logic.Clause{Head: c.Head, Body: body}).PruneNotHeadConnected(), nil
}

// ScoringSamples draws the scoring samples of a clause search or a
// minimum-criterion check: up to Options.EvalSampleCap of each class,
// positives first.
func (l *Learner) ScoringSamples(pos, neg []Example) (posSample, negSample []Example) {
	return l.sampleExamples(pos, l.opts.EvalSampleCap), l.sampleExamples(neg, l.opts.EvalSampleCap)
}

// Evaluate is the frontier evaluator every clause search scores through:
// two CountMany calls — the whole frontier against the positive sample,
// then every candidate covering at least minPos positives against the
// negative sample (the rest report zero negatives) — instead of 2·N
// individual counts. Through the shard transport this collapses a
// refinement step's RPC rounds from O(candidates · shards) to O(shards);
// in-process it fans the candidates across the worker pool. Counts are
// bit-identical to per-candidate evaluation.
func (l *Learner) Evaluate(ctx context.Context, cs []*logic.Clause, posSample, negSample []Example, minPos int) (ps, ns []int, err error) {
	l.opts.Metrics.Add(metrics.LearnCandidates, int64(len(cs)))
	return l.counts(ctx, cs, posSample, negSample, minPos)
}

// counts is Evaluate without the candidate accounting, which the
// minimum-criterion check of an already-counted clause goes through too.
func (l *Learner) counts(ctx context.Context, cs []*logic.Clause, posSample, negSample []Example, minPos int) (ps, ns []int, err error) {
	ps, err = l.cover.CountMany(ctx, cs, posSample)
	if err != nil {
		return nil, nil, err
	}
	live := make([]*logic.Clause, 0, len(cs))
	for i, c := range cs {
		if ps[i] >= minPos {
			live = append(live, c)
		}
	}
	counts, err := l.cover.CountMany(ctx, live, negSample)
	if err != nil {
		return nil, nil, err
	}
	ns = make([]int, len(cs))
	for i, k := 0, 0; i < len(cs); i++ {
		if ps[i] >= minPos {
			ns[i] = counts[k]
			k++
		}
	}
	return ps, ns, nil
}

// NoteRound records one round of a clause search — a beam round or a
// growth step — on the run's metrics.
func (l *Learner) NoteRound() {
	l.opts.Metrics.Inc(metrics.LearnRounds)
}

// Rand is the run's one RNG: every draw a search makes (example samples,
// candidate shuffles) comes from it, in a fixed order, so a run is a
// function of its seed, its coverage verdicts and whatever else its
// search reads (FOIL growth: the database's value frequencies).
func (l *Learner) Rand() *rand.Rand { return l.rng }

// count is CountMany for one clause.
func (l *Learner) count(ctx context.Context, c *logic.Clause, examples []Example) (int, error) {
	ns, err := l.cover.CountMany(ctx, []*logic.Clause{c}, examples)
	if err != nil {
		return 0, err
	}
	return ns[0], nil
}

// sampleExamples returns up to n examples drawn without replacement; the
// full slice when it already fits.
func (l *Learner) sampleExamples(xs []Example, n int) []Example {
	if len(xs) <= n {
		return xs
	}
	idx := l.rng.Perm(len(xs))[:n]
	out := make([]Example, n)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// scored pairs a candidate clause with its pos−neg coverage score and its
// canonical key, read from its store record.
type scored struct {
	clause *logic.Clause
	score  int
	key    string
}

// sortScored orders candidates best-first: higher score, then shorter
// clause (more general), then canonical key for determinism.
func sortScored(all []scored) {
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		if len(all[i].clause.Body) != len(all[j].clause.Body) {
			return len(all[i].clause.Body) < len(all[j].clause.Body)
		}
		return all[i].key < all[j].key
	})
}
