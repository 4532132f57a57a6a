package learn

import (
	"cmp"
	"context"
	"maps"
	"slices"
	"strings"

	"repro/internal/faultpoint"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/subsume"
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
// plus its intern table. It is only valid for a repair run with identical
// learning options and seed: the store keys clauses by canonical form,
// and a changed configuration would pair old verdicts with clauses that
// mean something different.
type CarriedState struct {
	// Interner is the previous engine's intern table. Carried compiled
	// grounds and clauses hold ids from this table, so the adopting
	// engine must use it (ids never affect verdicts — see internal/model).
	Interner *logic.Interner
	// entries maps example key → cached ground entry (BC + compiled
	// index). An entry is a pure function of (configuration, example,
	// data), so it remains valid for every example the batch did not
	// touch.
	entries map[string]*groundEntry
	// records is the previous run's clause store. Like a verdict, an armg
	// outcome is a pure function of the clause and the example's ground
	// BC, so both stay valid for every example the batch did not
	// perturb; the armg memo's name-sensitive level makes a perturbed
	// seed's renamed generalization chain miss and rebuild instead of
	// replaying stale variable names.
	records map[string]*clauseRecord
	// Unchecked counts the examples whose verdicts were left behind
	// because the previous engine held no ground entry for them — a
	// coordinator's remotely resolved examples, a panic-isolated one. The
	// check cannot see them, so a repair over this state must replay even
	// when nothing it checked is dirty.
	Unchecked int
}

// ExtractCarried snapshots the engine's coverage state for a repair run:
// every ground entry, and the verdicts and armg results of exactly those
// examples, because AdoptCarried's check can only vouch for an example
// whose carried BC it can compare. The maps are fresh copies; what
// AdoptCarried forgets from them does not disturb the source engine,
// which may still be serving.
func (ce *CoverageEngine) ExtractCarried() *CarriedState {
	ce.mu.RLock()
	defer ce.mu.RUnlock()
	cs := &CarriedState{
		Interner: ce.in,
		entries:  maps.Clone(ce.cache),
		records:  make(map[string]*clauseRecord, len(ce.records)),
	}
	unchecked := make(map[string]bool)
	for ck, rec := range ce.records {
		cp := &clauseRecord{
			key:      rec.key,
			verdicts: maps.Clone(rec.verdicts),
			armg:     make(map[string]map[string]*logic.Clause, len(rec.armg)),
		}
		maps.DeleteFunc(cp.verdicts, func(ek string, _ verdict) bool {
			if ce.cache[ek] != nil {
				return false
			}
			unchecked[ek] = true
			return true
		})
		for rendered, byEx := range rec.armg {
			cp.armg[rendered] = maps.Clone(byEx)
			maps.DeleteFunc(cp.armg[rendered], func(ek string, _ *logic.Clause) bool { return ce.cache[ek] == nil })
		}
		cp.cc.Store(rec.cc.Load())
		cs.records[ck] = cp
	}
	cs.Unchecked = len(unchecked)
	return cs
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
// which takes ownership of it, minus what the batch invalidated — repair's
// one invalidation step. Must be called before the engine runs (the
// SetWorkers contract): it replaces the intern table, the ground-entry
// cache and the clause store, marking every verdict carried so its first
// use is counted. A carried verdict answers without fetching the ground
// BC or running subsumption — the cost incremental repair saves.
//
// Every carried example, in sorted key order (the example is its entry's
// head), has its ground BC rebuilt once, on this engine's post-batch
// database, and compared term by term with the carried one; the
// ingest.examples_checked gauge counts them. A ground BC is a pure
// function of (options, example, data) under every sampler (DESIGN.md
// §19), and a verdict or armg result of (options, clause, ground BC), so
// an identical BC proves everything carried for the example still holds,
// whatever the batch did. A changed one makes the example dirty: the
// rebuilt entry takes the carried one's place, so the replay does not
// build it again, and the example's verdicts and armg results leave
// every record. A build that fails leaves the example without an entry —
// the replay meets the failure where the cold run would; cancellation
// aborts.
//
// flipped lists the keys of the prev clauses whose carried verdict on a
// dirty example no longer holds. The re-tests run under this engine's
// options — the budget the carried verdicts were searched under, so a
// verdict can only differ because the data did — and are stored like any
// other test of the run.
func (ce *CoverageEngine) AdoptCarried(ctx context.Context, cs *CarriedState, prev []*logic.Clause) (dirty, flipped []string, err error) {
	ce.in = cs.Interner
	for _, rec := range cs.records {
		for ek, v := range rec.verdicts {
			rec.verdicts[ek] = v | vCarried
		}
	}
	ce.mu.Lock()
	ce.cache, ce.records = cs.entries, cs.records
	ce.mu.Unlock()

	keys := make([]string, 0, len(ce.cache))
	for key := range ce.cache {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	ce.mc.Add(metrics.IngestExamplesChecked, int64(len(keys)))
	for _, key := range keys {
		old := ce.cache[key]
		bc, err := ce.buildBC(ctx, key, old.bc.Head)
		switch {
		case isCtxErr(err):
			return nil, nil, err
		case err != nil:
			delete(ce.cache, key)
		case bc.Equal(old.bc):
			continue
		default:
			ce.cache[key] = &groundEntry{bc: bc, cg: subsume.CompileGround(ce.in, bc)}
			ce.mc.Inc(metrics.CoverageBCBuilt)
		}
		dirty = append(dirty, key)
	}

	// Re-test before forgetting: the comparison needs the carried verdict,
	// and the fresh one, stored unmarked, is what the sweep below spares.
	for _, c := range prev {
		rec, changed := ce.record(c), false
		if err := faultpoint.Inject(ctx, "ingest.repair:"+rec.key); err != nil {
			return nil, nil, err
		}
		for _, key := range dirty {
			old, ent := rec.verdicts[key], ce.cache[key]
			if old&vCarried == 0 || ent == nil {
				continue
			}
			now, err := ce.settle(ctx, rec, c, key, ent)
			if err != nil {
				return nil, nil, err
			}
			ce.memoize(rec, key, now)
			changed = changed || (now^old)&vCovered != 0
		}
		if changed {
			flipped = append(flipped, rec.key)
		}
	}
	for _, rec := range ce.records {
		for _, key := range dirty {
			if rec.verdicts[key]&vCarried != 0 {
				delete(rec.verdicts, key)
			}
			for _, byEx := range rec.armg {
				delete(byEx, key)
			}
		}
	}
	return dirty, flipped, nil
}

// CarriedHits reports how many distinct carried (clause, example)
// verdicts the run consumed — each one a ground-BC fetch and subsumption
// test incremental repair avoided. Clauses equal up to variable renaming
// share a record, so a verdict read through several of them counts once.
func (ce *CoverageEngine) CarriedHits() int64 { return ce.carriedHits.Load() }
