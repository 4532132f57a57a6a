// Package foil implements the top-down clause search the paper uses as
// its Aleph baseline (§6.1): Aleph configured to emulate FOIL [Quinlan
// 1990; QuickFOIL]. The sequential covering loop of Algorithm 1 is
// learn.Learner's; this package is its LearnClause step grown top-down,
// greedily adding the mode-compatible literal with the best FOIL
// information gain until the clause rejects all negatives (or no literal
// helps). Like the systems in the paper it is biased toward short
// clauses: fast, but less accurate on concepts that need long join
// chains.
package foil

import (
	"context"
	"math"
	"sort"
	"strconv"

	"repro/internal/bias"
	"repro/internal/db"
	"repro/internal/learn"
	"repro/internal/logic"
)

// The limits of the FOIL search itself. Everything else a run is
// configured by — coverage budgets, the minimum criterion, timeout, seed,
// workers, metrics — is the covering loop's, in learn.Options.
const (
	// maxClauseLen caps body length.
	maxClauseLen = 5
	// maxCandidates caps candidate literals evaluated per growth step.
	maxCandidates = 300
	// maxConstants caps the constants tried per # position (most frequent
	// first).
	maxConstants = 10
)

// evalSampleCap is the scoring-sample default under this search: each
// growth step scores up to 300 candidates, against the beam's handful,
// so its samples are smaller than the bottom-up default of 200.
const evalSampleCap = 150

// New returns the covering-loop learner with FOIL-gain growth plugged in
// as its clause search: lo configures the loop (an unset EvalSampleCap
// selects this search's 150).
func New(d *db.Database, c *bias.Compiled, lo learn.Options) *learn.Learner {
	if lo.EvalSampleCap <= 0 {
		lo.EvalSampleCap = evalSampleCap
	}
	lo.Search = &search{db: d, bias: c, maxClauseLen: maxClauseLen, maxConstants: maxConstants}
	return learn.New(d, c, lo)
}

// search is the top-down learn.ClauseSearch. Its two limits are fields
// only so the tests can tighten them.
type search struct {
	db           *db.Database
	bias         *bias.Compiled
	maxClauseLen int
	maxConstants int
}

// LearnClause grows one clause top-down by FOIL gain. Each growth step
// scores its whole candidate frontier through the learner's evaluator:
// positives for every candidate, negatives only for those that still
// cover a positive.
func (s *search) LearnClause(ctx context.Context, l *learn.Learner, pos, neg []learn.Example) (*logic.Clause, error) {
	head, varTypes, next := s.headLiteral()
	clause := &logic.Clause{Head: head}

	posSample, negSample := l.ScoringSamples(pos, neg)

	p0, n0 := len(posSample), len(negSample)
	for len(clause.Body) < s.maxClauseLen && n0 > 0 {
		l.NoteRound()
		cands := s.candidateLiterals(varTypes, &next)
		if len(cands) > maxCandidates {
			l.Rand().Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			cands = cands[:maxCandidates]
		}
		// Two modes of one relation can propose the same literal, or the
		// same up to the name of a fresh variable; the later twin can never
		// win (its gain ties), so only the first is scored — which also
		// keeps pool workers from racing on one store record.
		var trials []*logic.Clause
		seen := make(map[string]bool, len(cands))
		for _, cand := range cands {
			trial := &logic.Clause{Head: clause.Head, Body: append(append([]logic.Literal(nil), clause.Body...), cand)}
			if key := trial.Key(); !seen[key] {
				seen[key] = true
				trials = append(trials, trial)
			}
		}
		ps, ns, err := l.Evaluate(ctx, trials, posSample, negSample, 1)
		if err != nil {
			return nil, err
		}
		best, bestGain := -1, 0.0
		for i := range trials {
			if gain := foilGain(p0, n0, ps[i], ns[i]); gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		clause = trials[best]
		// Register the new literal's fresh variables with their types.
		lit := clause.Body[len(clause.Body)-1]
		for i, t := range lit.Terms {
			if t.IsVar() {
				if _, ok := varTypes[t.Name]; !ok {
					varTypes[t.Name] = typeSet(s.bias.TypesOf(lit.Predicate, i))
				}
			}
		}
		p0, n0 = ps[best], ns[best]
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
func (s *search) headLiteral() (logic.Literal, map[string]map[string]bool, int) {
	target := s.bias.Target()
	varTypes := make(map[string]map[string]bool)
	var terms []logic.Term
	i := 0
	for {
		types := s.bias.TypesOf(target, i)
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

func varName(i int) string { return "V" + strconv.Itoa(i) }

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
func (s *search) candidateLiterals(varTypes map[string]map[string]bool, next *int) []logic.Literal {
	varNames := make([]string, 0, len(varTypes))
	for v := range varTypes {
		varNames = append(varNames, v)
	}
	sort.Strings(varNames)

	var out []logic.Literal
	for _, rel := range s.bias.Relations() {
		for _, m := range s.bias.ModesFor(rel) {
			// Per-position term choices.
			choices := make([][]logic.Term, len(m.Symbols))
			feasible := true
			freshUsed := 0
			for i, sym := range m.Symbols {
				attrTypes := typeSet(s.bias.TypesOf(rel, i))
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
					for _, c := range s.topConstants(rel, i) {
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
			// Enumerate the Cartesian product (bounded by maxCandidates
			// overall; individual products are small in practice).
			idx := make([]int, len(choices))
			for {
				terms := make([]logic.Term, len(choices))
				for i, j := range idx {
					terms[i] = choices[i][j]
				}
				out = append(out, logic.Literal{Predicate: rel, Terms: terms})
				if len(out) >= maxCandidates*4 {
					// Hard cap: the caller samples down to maxCandidates.
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
// at s.maxConstants.
func (s *search) topConstants(rel string, attr int) []string {
	r := s.db.Relation(rel)
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
	if len(vals) > s.maxConstants {
		vals = vals[:s.maxConstants]
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
