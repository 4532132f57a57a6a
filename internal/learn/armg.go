package learn

import (
	"context"

	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/subsume"
)

// ARMGCtx applies the asymmetric relative minimal generalization operator
// (§2.3.2): given clause c (initially a bottom clause) and the ground
// bottom clause of another positive example, it drops blocking atoms —
// body literals whose addition first breaks coverage of the example —
// until the clause covers the example, then drops literals that are no
// longer head-connected. The result covers the example and is more
// general than c; nil is returned when even the empty-bodied head cannot
// cover it (head unification fails).
//
// The implementation is a single forward pass. The paper defines armg as
// "repeatedly remove the least-indexed blocking atom": since prefix
// coverage is monotone non-increasing as literals are appended, that is
// equivalent to scanning left to right and keeping each literal only if
// the kept prefix plus that literal still covers the example — n
// subsumption tests instead of O(k log n) restarted searches.
//
// A cancelled ctx makes the remaining subsumption tests report
// non-coverage, so the pass degenerates to dropping the literals it had
// not yet examined and returns quickly. The caller observes the
// cancellation via ctx and discards the result, so the truncation is
// harmless — it only bounds how much work is wasted.
func ARMGCtx(ctx context.Context, c *logic.Clause, ground *logic.Clause, opts subsume.Options) *logic.Clause {
	out, _ := armg(ctx, c, subsume.CompileGround(nil, ground), opts)
	return out
}

// armg is ARMGCtx over an already compiled ground clause. The forward
// pass itself — compile the clause once, grow the kept prefix literal by
// literal, refute before searching — is subsume.ForwardPass; its result
// also carries the refuter's counts for the armg.* counters.
func armg(ctx context.Context, c *logic.Clause, cg *subsume.CompiledGround, opts subsume.Options) (*logic.Clause, subsume.Forward) {
	fw := subsume.ForwardPass(ctx, c, cg, opts)
	switch {
	case !fw.HeadMatches:
		return nil, fw
	case fw.Covers:
		return c.PruneNotHeadConnected(), fw
	}
	kept := make([]logic.Literal, len(fw.Kept))
	for i, li := range fw.Kept {
		kept[i] = c.Body[li]
	}
	return (&logic.Clause{Head: c.Head, Body: kept}).PruneNotHeadConnected(), fw
}

// GeneralizeManyCtx applies the armg operator to every (clause, example)
// pair — one beam-search round's frontier — through the engine's memo,
// and returns the results clause-major: out[i*len(examples)+j] is
// clauses[i] generalized against examples[j], nil when there is none.
//
// The outcome for a pair is a pure function of (clause, example ground
// BC, subsumption options), and the ground BC is a function of the
// example, so the memo lives in the clause's store record under
// (rendered clause, example key). Beam clauses recur across rounds — the
// same (clause, example) pair is re-generalized whenever a clause
// survives a round and the example is re-sampled — and each application
// pays a per-literal subsumption pass, so the memo removes a large share
// of learning cost without touching the decision sequence: a hit returns
// exactly the clause a fresh pass would rebuild, and the operator
// consumes no RNG. The memo also carries across runs (CarriedState),
// which is what lets incremental repair skip the generalization work of
// unperturbed examples; keying by the rendered form (name-sensitive)
// rather than the canonical key is what keeps that carry exact — a
// perturbed seed's bottom clause renumbers variables, and its
// generalization chain must rebuild with the new names instead of
// replaying a renamed twin's memo entry.
//
// The pairs that miss the memo fan out across the worker pool. What
// keeps the result, the memo, the intern table and the deterministic
// counters identical at every worker count is the order of the one step
// that touches shared state: the ground BCs of the missing pairs are
// fetched first, sequentially, in pair order — the order a one-by-one
// loop first touches them — and only then do the passes run, each a
// function of its own (clause, compiled ground BC, options). A
// cancelled pass is truncated (remaining subsumption tests report
// non-coverage), so a done ctx is returned as an error and nothing of
// the round is memoized.
func (ce *CoverageEngine) GeneralizeManyCtx(ctx context.Context, clauses []*logic.Clause, examples []Example) ([]*logic.Clause, error) {
	spanStart := ce.mc.StartSpan()
	defer ce.mc.EndSpan(metrics.SpanARMG, spanStart)

	// A job is one memo miss: a pass to run, and the slots of out it
	// fills (more than one when the pair repeats within the round, which
	// a one-by-one loop would have answered from the memo).
	type pair struct{ rendered, example string }
	type job struct {
		pair
		rec   *clauseRecord
		c     *logic.Clause
		cg    *subsume.CompiledGround
		slots []int
		out   *logic.Clause
		fw    subsume.Forward
	}
	out := make([]*logic.Clause, len(clauses)*len(examples))
	var jobs []*job
	planned := make(map[pair]*job)
	for i, c := range clauses {
		rec, rendered := ce.record(c), c.String()
		for j, e := range examples {
			slot := i*len(examples) + j
			key := pair{rendered, e.String()}
			ce.mu.RLock()
			cand, ok := rec.armg[rendered][key.example]
			ce.mu.RUnlock()
			if ok {
				ce.mc.Inc(metrics.ARMGMemoHits)
				out[slot] = cand
				continue
			}
			if jb := planned[key]; jb != nil {
				ce.mc.Inc(metrics.ARMGMemoHits)
				jb.slots = append(jb.slots, slot)
				continue
			}
			ent, err := ce.entry(ctx, key.example, e)
			if err != nil {
				return nil, err
			}
			jb := &job{pair: key, rec: rec, c: c, cg: ent.cg, slots: []int{slot}}
			jobs = append(jobs, jb)
			planned[key] = jb
		}
	}

	err := ce.fanOut(len(jobs), func(k int) (err error) {
		defer recoverToErr(&err)
		if err := ctx.Err(); err != nil {
			return err
		}
		jobs[k].out, jobs[k].fw = armg(ctx, jobs[k].c, jobs[k].cg, ce.subOpts)
		return nil
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}

	ce.mu.Lock()
	for _, jb := range jobs {
		if jb.rec.armg == nil {
			jb.rec.armg = make(map[string]map[string]*logic.Clause)
		}
		byEx := jb.rec.armg[jb.rendered]
		if byEx == nil {
			byEx = make(map[string]*logic.Clause)
			jb.rec.armg[jb.rendered] = byEx
		}
		byEx[jb.example] = jb.out
	}
	ce.mu.Unlock()
	for _, jb := range jobs {
		for _, slot := range jb.slots {
			out[slot] = jb.out
		}
		ce.mc.Inc(metrics.ARMGApplications)
		ce.mc.Add(metrics.ARMGLiteralsRefuted, int64(jb.fw.Refuted))
		if jb.fw.WholeRefuted {
			ce.mc.Inc(metrics.ARMGFastPathSkipped)
		}
	}
	return out, nil
}
