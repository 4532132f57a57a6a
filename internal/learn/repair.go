package learn

import (
	"cmp"
	"context"
	"maps"
	"slices"
	"strings"

	"repro/internal/logic"
)

// Incremental theory repair (DESIGN.md §16) re-runs the learner on the
// post-batch database while replaying every coverage verdict that a data
// batch provably could not have changed. The learner's decisions are a
// pure function of its coverage verdicts (given fixed options and seed;
// the FOIL search adds the database's value frequencies, which the
// re-run reads afresh), so replaying all unchanged verdicts forces the
// re-run down exactly the path a cold re-learn would take —
// bit-identical theories by construction — while skipping the ground-BC
// construction and subsumption work that dominates learning cost.

// CarriedState is the portable coverage state extracted from a previous
// run's engine, to be adopted by a fresh engine over the post-batch
// database: a copy of the engine's clause store and ground-entry cache
// plus its intern table. Dirty examples — those whose ground BC could
// differ on the new database — are dropped from it before the replay, so
// their verdicts are recomputed from scratch. It is only valid for a
// repair run with identical learning options and seed: the store keys
// clauses by canonical form, and a changed configuration would pair old
// verdicts with clauses that mean something different.
type CarriedState struct {
	// Interner is the previous engine's intern table. Carried compiled
	// grounds and clauses hold ids from this table, so the adopting
	// engine must use it (ids never affect verdicts — see internal/model).
	Interner *logic.Interner
	// Entries maps example key → cached ground entry (BC + compiled
	// index). An entry is a pure function of (configuration, example,
	// data), so it remains valid for every example the batch did not
	// touch.
	Entries map[string]*GroundEntry
	// records is the previous run's clause store. Like a verdict, an armg
	// outcome is a pure function of the clause and the example's ground
	// BC, so both stay valid for every example the batch did not
	// perturb; the armg memo's name-sensitive level makes a perturbed
	// seed's renamed generalization chain miss and rebuild instead of
	// replaying stale variable names.
	records map[string]*clauseRecord
}

// ExtractCarried snapshots the engine's coverage state for a repair run.
// The maps are fresh copies; mutating them (DropExamples) does not
// disturb the source engine, which may still be serving.
func (ce *CoverageEngine) ExtractCarried() *CarriedState {
	ce.mu.RLock()
	defer ce.mu.RUnlock()
	cs := &CarriedState{
		Interner: ce.in,
		Entries:  maps.Clone(ce.cache),
		records:  make(map[string]*clauseRecord, len(ce.records)),
	}
	for ck, rec := range ce.records {
		cp := &clauseRecord{
			verdicts: maps.Clone(rec.verdicts),
			armg:     make(map[string]map[string]*logic.Clause, len(rec.armg)),
		}
		for rendered, byEx := range rec.armg {
			cp.armg[rendered] = maps.Clone(byEx)
		}
		cp.cc.Store(rec.cc.Load())
		cs.records[ck] = cp
	}
	return cs
}

// DropExamples removes the given example keys from the carried state —
// their ground entries and, in every record, their verdicts and armg
// results — so the repair run recomputes them against the post-batch
// database.
func (cs *CarriedState) DropExamples(keys []string) {
	for _, k := range keys {
		delete(cs.Entries, k)
		for _, rec := range cs.records {
			delete(rec.verdicts, k)
			for _, byEx := range rec.armg {
				delete(byEx, k)
			}
		}
	}
}

// Verdict reads one carried verdict by (clause canonical key, example
// key); ok is false if the pair was dropped or never tested.
func (cs *CarriedState) Verdict(clauseKey, exampleKey string) (v, ok bool) {
	rec := cs.records[clauseKey]
	if rec == nil {
		return false, false
	}
	st, ok := rec.verdicts[exampleKey]
	return st&vCovered != 0, ok
}

// ARMGPairs lists the (rendered clause, example key) pairs the carried
// armg memo holds, sorted — the determinism suites compare it across
// worker counts.
func (cs *CarriedState) ARMGPairs() [][2]string {
	var pairs [][2]string
	for _, rec := range cs.records {
		for rendered, byEx := range rec.armg {
			for ek := range byEx {
				pairs = append(pairs, [2]string{rendered, ek})
			}
		}
	}
	slices.SortFunc(pairs, func(a, b [2]string) int {
		return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
	})
	return pairs
}

// AdoptCarried installs a previous run's coverage state on this engine,
// which takes ownership of it. Must be called before the engine runs
// (the SetWorkers contract): it replaces the intern table, the
// ground-entry cache and the clause store, marking every verdict carried
// so its first use is counted. A carried verdict answers without
// fetching the ground BC or running subsumption — the cost incremental
// repair saves.
func (ce *CoverageEngine) AdoptCarried(cs *CarriedState) {
	ce.in = cs.Interner
	ce.builder.SetInterner(cs.Interner)
	for _, rec := range cs.records {
		for ek, v := range rec.verdicts {
			rec.verdicts[ek] = v | vCarried
		}
	}
	ce.mu.Lock()
	ce.cache, ce.records = cs.Entries, cs.records
	ce.mu.Unlock()
}

// CarriedHits reports how many distinct carried (clause, example)
// verdicts the run consumed — each one a ground-BC fetch and subsumption
// test incremental repair avoided. Clauses equal up to variable renaming
// share a record, so a verdict read through several of them counts once.
func (ce *CoverageEngine) CarriedHits() int64 { return ce.carriedHits.Load() }

// StaleExamples narrows a candidate dirty set to the examples whose
// ground BC actually changed on the post-batch database. For each
// candidate it rebuilds the BC (cache-free — the engine's own caches are
// untouched) and compares it textually against the carried entry. A
// coverage verdict is a pure function of (configuration, clause, ground
// BC), so a bit-identical BC proves every carried verdict for that
// example is still valid; only genuinely changed examples need
// recomputation. This
// is the second, exact filter behind AffectedExamples' value-level
// screen: common constant values can mark most of the corpus as
// possibly-affected while the batch leaves almost every BC untouched
// (duplicate tuples, values in un-sampled rows), and a BC rebuild costs
// microseconds against the seconds of subsumption work a dropped
// example forces the replay to redo.
//
// Candidates without a carried entry or without a known example object
// are stale by definition. A construction error marks the example stale
// (the replay reproduces the cold path's handling); context
// cancellation aborts. Must be called on the repair engine before
// AdoptCarried.
func (ce *CoverageEngine) StaleExamples(ctx context.Context, cs *CarriedState, dirty []string, examples map[string]Example) ([]string, error) {
	var stale []string
	for _, key := range dirty {
		old, haveOld := cs.Entries[key]
		e, haveEx := examples[key]
		if !haveOld || !haveEx {
			stale = append(stale, key)
			continue
		}
		bc, err := ce.buildBC(ctx, key, e)
		if err != nil {
			if isCtxErr(err) {
				return nil, err
			}
			stale = append(stale, key)
			continue
		}
		if bc.String() != old.bc.String() {
			stale = append(stale, key)
		}
	}
	slices.Sort(stale)
	return stale, nil
}

// AffectedExamples returns, sorted, the keys of cached examples whose
// ground BC could change after a data batch that inserted or deleted
// tuples containing the given constant values.
//
// The invalidation argument (DESIGN.md §16): under naive sampling, BC
// construction grows each depth's frontier via rel.Lookup(attr, c) for
// constants c already in the clause, so a tuple joins an example's BC
// only if one of its values matches a constant already among the BC's
// literals (the head contributes the example's own arguments). A tuple
// sharing no value with the BC can never be a lookup candidate — it
// neither adds literals nor perturbs the per-depth sample — so the BC
// is unchanged. Values absent from the intern table appear in no cached
// BC and are skipped outright. Callers using non-naive sampling
// strategies must treat every example as affected (the relation-wide
// MaxFrequency those strategies consult can shift under any mutation);
// the facade enforces that fallback.
func (ce *CoverageEngine) AffectedExamples(values []string) []string {
	ids := make(map[int32]bool, len(values))
	for _, v := range values {
		if id, ok := ce.in.Lookup(v); ok {
			ids[id] = true
		}
	}
	var keys []string
	ce.mu.RLock()
	for k, ent := range ce.cache {
		if ent.cg.HasAnySymbol(ids) {
			keys = append(keys, k)
		}
	}
	ce.mu.RUnlock()
	slices.Sort(keys)
	return keys
}
