// Package foil implements the top-down relational learner the paper uses
// as its Aleph baseline (§6.1): Aleph configured to emulate FOIL
// [Quinlan 1990; QuickFOIL]. It shares the sequential covering loop of
// Algorithm 1 with the bottom-up learner, but LearnClause grows a clause
// top-down, greedily adding the mode-compatible literal with the best
// FOIL information gain until the clause rejects all negatives (or no
// literal helps). Like the systems in the paper it is biased toward
// short clauses: fast, but less accurate on concepts that need long
// join chains.
package foil

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/bias"
	"repro/internal/bottom"
	"repro/internal/db"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/subsume"
)

// Options configures the FOIL learner.
type Options struct {
	// Bottom configures ground-BC construction for coverage testing.
	Bottom bottom.Options
	// Subsume bounds coverage tests.
	Subsume subsume.Options
	// MaxClauseLen caps body length; <=0 defaults to 5.
	MaxClauseLen int
	// MaxCandidates caps candidate literals evaluated per growth step;
	// <=0 defaults to 300.
	MaxCandidates int
	// MaxConstants caps the constants tried per # position (most frequent
	// first); <=0 defaults to 10.
	MaxConstants int
	// EvalSampleCap bounds scoring sample sizes; <=0 defaults to 150.
	EvalSampleCap int
	// MinPositives and MinPrecision form the minimum criterion, as in the
	// bottom-up learner; defaults 2 (1 for <10 positives) and 0.7.
	MinPositives int
	MinPrecision float64
	// Timeout bounds total learning time; 0 = unlimited.
	Timeout time.Duration
	// Seed drives sampling; 0 selects a fixed default.
	Seed int64
	// Workers bounds the coverage engine's worker pool, as in the
	// bottom-up learner; <=0 defaults to runtime.GOMAXPROCS(0).
	Workers int
	// Metrics, when non-nil, collects the run's instrumentation, as in
	// the bottom-up learner. Nil disables collection at zero cost.
	Metrics *metrics.Collector
}

func (o Options) normalized() Options {
	if o.MaxClauseLen <= 0 {
		o.MaxClauseLen = 5
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 300
	}
	if o.MaxConstants <= 0 {
		o.MaxConstants = 10
	}
	if o.EvalSampleCap <= 0 {
		o.EvalSampleCap = 150
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
		// Same rationale as the bottom-up learner: coverage testing
		// dominates, and non-coverage proofs consume the whole budget.
		o.Subsume.MaxNodes = 5000
	}
	return o
}

// Stats summarizes a FOIL run.
type Stats struct {
	Clauses        int
	CandidatesSeen int
	Elapsed        time.Duration
	// TimedOut / Cancelled mirror the bottom-up learner: the run was
	// interrupted by a deadline or explicit cancellation and the returned
	// definition holds the clauses learned so far.
	TimedOut  bool
	Cancelled bool
	// Report records the run's degradation events. Never nil.
	Report *report.Report
}

// Learner is the top-down learner.
type Learner struct {
	db    *db.Database
	bias  *bias.Compiled
	opts  Options
	cover *learn.CoverageEngine
	rng   *rand.Rand
}

// New creates a FOIL learner over a database and compiled bias.
func New(d *db.Database, c *bias.Compiled, opts Options) *Learner {
	opts = opts.normalized()
	if opts.Metrics != nil {
		opts.Bottom.Metrics = opts.Metrics
		opts.Subsume.Metrics = opts.Metrics
	}
	builder := bottom.NewBuilder(d, c, opts.Bottom)
	cover := learn.NewCoverage(builder, opts.Subsume)
	cover.SetWorkers(opts.Workers)
	if opts.Metrics != nil {
		cover.SetMetrics(opts.Metrics)
	}
	return &Learner{
		db:    d,
		bias:  c,
		opts:  opts,
		cover: cover,
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}
}

// Coverage exposes the coverage engine for evaluation.
func (l *Learner) Coverage() *learn.CoverageEngine { return l.cover }

// Learn runs sequential covering under Options.Timeout alone.
func (l *Learner) Learn(pos, neg []learn.Example) (*logic.Definition, *Stats, error) {
	return l.LearnCtx(context.Background(), pos, neg)
}

// isCtxErr reports a context cancellation or deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// LearnCtx runs sequential covering with top-down clause construction.
// Cancellation semantics match the bottom-up learner: the run stops
// mid-primitive, returns the theory learned so far, and records the
// interruption in Stats (TimedOut/Cancelled + Report).
func (l *Learner) LearnCtx(ctx context.Context, pos, neg []learn.Example) (*logic.Definition, *Stats, error) {
	start := time.Now()
	spanStart := l.opts.Metrics.StartSpan()
	defer l.opts.Metrics.EndSpan(metrics.SpanLearn, spanStart)
	if l.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, l.opts.Timeout)
		defer cancel()
	}
	rep := report.New()
	l.cover.SetReport(rep)
	stats := &Stats{Report: rep}
	def := &logic.Definition{Target: l.bias.Target()}
	noteStop := func(where string) {
		if ctx.Err() == context.DeadlineExceeded {
			stats.TimedOut = true
		} else {
			stats.Cancelled = true
		}
		if rep.Count(report.DeadlineHit) == 0 {
			rep.Add(report.Event{
				Kind:   report.DeadlineHit,
				Site:   "foil.Learn",
				Detail: "interrupted during " + where + "; returning clauses learned so far",
			})
		}
	}

	minPos := l.opts.MinPositives
	if minPos <= 0 {
		minPos = 2
		if len(pos) < 10 {
			minPos = 1
		}
	}

	uncovered := append([]learn.Example(nil), pos...)
	for len(uncovered) > 0 {
		if ctx.Err() != nil {
			noteStop("covering loop")
			break
		}
		clause, err := l.learnClause(ctx, uncovered, neg, stats)
		if err != nil {
			if isCtxErr(err) {
				noteStop("learnClause")
				break
			}
			return nil, nil, err
		}
		keep := false
		if clause != nil && len(clause.Body) > 0 {
			p, err := l.count(ctx, clause, sample(l.rng, uncovered, l.opts.EvalSampleCap))
			if err == nil {
				var n int
				n, err = l.count(ctx, clause, sample(l.rng, neg, l.opts.EvalSampleCap))
				if err == nil {
					prec := 1.0
					if p+n > 0 {
						prec = float64(p) / float64(p+n)
					}
					keep = p >= minPos && prec >= l.opts.MinPrecision
				}
			}
			if err != nil {
				if isCtxErr(err) {
					noteStop("minimum-criterion scoring")
					break
				}
				return nil, nil, err
			}
		}
		if !keep {
			uncovered = uncovered[1:]
			continue
		}
		def.Add(clause)
		stats.Clauses++
		l.opts.Metrics.Inc(metrics.LearnClauses)
		var still []learn.Example
		interrupted := false
		for _, e := range uncovered {
			ok, err := l.cover.Covers(ctx, clause, e)
			if err != nil {
				if isCtxErr(err) {
					interrupted = true
					break
				}
				return nil, nil, err
			}
			if !ok {
				still = append(still, e)
			}
		}
		if interrupted {
			noteStop("covered-positive removal")
			break
		}
		if len(still) == len(uncovered) {
			// No progress; avoid looping forever.
			uncovered = uncovered[1:]
		} else {
			uncovered = still
		}
	}
	stats.Elapsed = time.Since(start)
	return def, stats, nil
}

// learnClause grows one clause top-down by FOIL gain. A ctx error return
// means the budget interrupted the growth; the caller keeps its theory.
func (l *Learner) learnClause(ctx context.Context, pos, neg []learn.Example, stats *Stats) (*logic.Clause, error) {
	head, varTypes, next := l.headLiteral()
	clause := &logic.Clause{Head: head}

	posSample := sample(l.rng, pos, l.opts.EvalSampleCap)
	negSample := sample(l.rng, neg, l.opts.EvalSampleCap)

	p0, n0 := len(posSample), len(negSample)
	for len(clause.Body) < l.opts.MaxClauseLen && n0 > 0 {
		if ctx.Err() != nil {
			break
		}
		l.opts.Metrics.Inc(metrics.LearnRounds)
		cands := l.candidateLiterals(varTypes, &next)
		if len(cands) > l.opts.MaxCandidates {
			l.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			cands = cands[:l.opts.MaxCandidates]
		}
		var bestLit *logic.Literal
		bestGain := 0.0
		bestP, bestN := 0, 0
		for i := range cands {
			if ctx.Err() != nil {
				break
			}
			stats.CandidatesSeen++
			l.opts.Metrics.Inc(metrics.LearnCandidates)
			trial := &logic.Clause{Head: clause.Head, Body: append(append([]logic.Literal(nil), clause.Body...), cands[i])}
			p1, err := l.count(ctx, trial, posSample)
			if err != nil {
				return nil, err
			}
			if p1 == 0 {
				continue
			}
			n1, err := l.count(ctx, trial, negSample)
			if err != nil {
				return nil, err
			}
			gain := foilGain(p0, n0, p1, n1)
			if gain > bestGain {
				bestGain = gain
				bestLit = &cands[i]
				bestP, bestN = p1, n1
			}
		}
		if bestLit == nil {
			break
		}
		clause.Body = append(clause.Body, *bestLit)
		// Register the new literal's fresh variables with their types.
		for i, t := range bestLit.Terms {
			if t.IsVar() {
				if _, ok := varTypes[t.Name]; !ok {
					varTypes[t.Name] = typeSet(l.bias.TypesOf(bestLit.Predicate, i))
				}
			}
		}
		p0, n0 = bestP, bestN
	}
	if len(clause.Body) == 0 {
		return nil, nil
	}
	return clause, nil
}

// foilGain is Quinlan's information gain: p1 * (I(p0,n0) − I(p1,n1))
// with I(p,n) = −log2(p/(p+n)).
func foilGain(p0, n0, p1, n1 int) float64 {
	if p0 == 0 || p1 == 0 {
		return 0
	}
	i0 := -math.Log2(float64(p0) / float64(p0+n0))
	i1 := -math.Log2(float64(p1) / float64(p1+n1))
	return float64(p1) * (i0 - i1)
}

// headLiteral builds the target head with one variable per attribute,
// returning the variable-type table and the next fresh-variable counter.
func (l *Learner) headLiteral() (logic.Literal, map[string]map[string]bool, int) {
	target := l.bias.Target()
	varTypes := make(map[string]map[string]bool)
	var terms []logic.Term
	i := 0
	for {
		types := l.bias.TypesOf(target, i)
		if types == nil {
			break
		}
		name := varName(i)
		terms = append(terms, logic.Var(name))
		varTypes[name] = typeSet(types)
		i++
	}
	return logic.Literal{Predicate: target, Terms: terms}, varTypes, i
}

func varName(i int) string { return "V" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

func typeSet(types []string) map[string]bool {
	s := make(map[string]bool, len(types))
	for _, t := range types {
		s[t] = true
	}
	return s
}

// candidateLiterals enumerates mode-compatible literals over the current
// variables: + positions take existing variables of a shared type, −
// positions take existing compatible variables or one fresh variable, #
// positions take the attribute's most frequent constants.
func (l *Learner) candidateLiterals(varTypes map[string]map[string]bool, next *int) []logic.Literal {
	varNames := make([]string, 0, len(varTypes))
	for v := range varTypes {
		varNames = append(varNames, v)
	}
	sort.Strings(varNames)

	var out []logic.Literal
	for _, rel := range l.bias.Relations() {
		for _, m := range l.bias.ModesFor(rel) {
			// Per-position term choices.
			choices := make([][]logic.Term, len(m.Symbols))
			feasible := true
			freshUsed := 0
			for i, sym := range m.Symbols {
				attrTypes := typeSet(l.bias.TypesOf(rel, i))
				switch sym {
				case bias.Input:
					for _, v := range varNames {
						if intersects(varTypes[v], attrTypes) {
							choices[i] = append(choices[i], logic.Var(v))
						}
					}
					if len(choices[i]) == 0 {
						feasible = false
					}
				case bias.Output:
					for _, v := range varNames {
						if intersects(varTypes[v], attrTypes) {
							choices[i] = append(choices[i], logic.Var(v))
						}
					}
					// One fresh variable per − position.
					choices[i] = append(choices[i], logic.Var(varName(*next+freshUsed)))
					freshUsed++
				case bias.Constant:
					for _, c := range l.topConstants(rel, i) {
						choices[i] = append(choices[i], logic.Const(c))
					}
					if len(choices[i]) == 0 {
						feasible = false
					}
				}
				if !feasible {
					break
				}
			}
			if !feasible {
				continue
			}
			// Enumerate the Cartesian product (bounded by MaxCandidates
			// overall; individual products are small in practice).
			idx := make([]int, len(choices))
			for {
				terms := make([]logic.Term, len(choices))
				for i, j := range idx {
					terms[i] = choices[i][j]
				}
				out = append(out, logic.Literal{Predicate: rel, Terms: terms})
				if len(out) >= l.opts.MaxCandidates*4 {
					// Hard cap: the caller samples down to MaxCandidates.
					*next += freshUsed
					return out
				}
				k := len(idx) - 1
				for ; k >= 0; k-- {
					idx[k]++
					if idx[k] < len(choices[k]) {
						break
					}
					idx[k] = 0
				}
				if k < 0 {
					break
				}
			}
			*next += freshUsed
		}
	}
	return out
}

// topConstants returns the most frequent values of the attribute, capped
// at MaxConstants.
func (l *Learner) topConstants(rel string, attr int) []string {
	r := l.db.Relation(rel)
	if r == nil {
		return nil
	}
	vals := r.DistinctValues(attr)
	sort.Slice(vals, func(i, j int) bool {
		fi, fj := r.Frequency(attr, vals[i]), r.Frequency(attr, vals[j])
		if fi != fj {
			return fi > fj
		}
		return vals[i] < vals[j]
	})
	if len(vals) > l.opts.MaxConstants {
		vals = vals[:l.opts.MaxConstants]
	}
	return vals
}

func intersects(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// count is the exact number of examples the clause covers.
func (l *Learner) count(ctx context.Context, c *logic.Clause, examples []learn.Example) (int, error) {
	ns, err := l.cover.CountMany(ctx, []*logic.Clause{c}, examples, len(examples)+1)
	if err != nil {
		return 0, err
	}
	return ns[0], nil
}

// sample draws up to n examples without replacement.
func sample(rng *rand.Rand, xs []learn.Example, n int) []learn.Example {
	if len(xs) <= n {
		return xs
	}
	idx := rng.Perm(len(xs))[:n]
	out := make([]learn.Example, n)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
