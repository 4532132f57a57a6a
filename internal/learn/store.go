package learn

import (
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/subsume"
)

// The engine's one store (DESIGN.md §18): a record per clause up to
// variable renaming, keyed by the clause's canonical key (logic's
// Clause.Key), which record renders once per clause pointer and the
// record keeps, so nothing else in the package renders one. A coverage
// verdict is a pure function of (canonical clause, ground BC, options) —
// the subsumption compiler numbers variables by first occurrence, exactly
// as the key renames them, so renamed twins compile to the same search —
// which is why verdicts and the compiled clause sit at the record level,
// shared by every pointer and every run (incremental repair carries
// records across engines, see repair.go). An armg result is NOT
// renaming-invariant: it reuses its input clause's variable names, so the
// armg memo nests one level further down, under the clause's rendered
// form.

// verdict is one stored (clause, example) outcome.
type verdict uint8

const (
	// vCovered: the clause covers the example.
	vCovered verdict = 1 << iota
	// vCarried: installed by AdoptCarried and not yet read by this run.
	vCarried
	// vRefuted: not covered, and the search that said so finished — no
	// substitution exists at any budget. settle sets it, from subsume's
	// Result.Complete, here or on a shard worker, whose answer carries it
	// back (Verdict.Refuted). An isolated failure, an injected fault and
	// an older worker's answer stay unmarked: "not covered" without a
	// proof. Negative reduction reads it (reduceClause): a clause refuted
	// on an example refutes every clause whose body contains its own
	// under the same head. armg reads it too (GeneralizeManyCtx): a
	// refuted pair skips the whole-clause test.
	vRefuted
)

// exported is v as a transport answers it, without the carried mark.
func (v verdict) exported() Verdict {
	return Verdict{Covered: v&vCovered != 0, Refuted: v&vRefuted != 0}
}

// stored is a transport's answer as the store keeps it.
func stored(v Verdict) verdict {
	switch {
	case v.Covered:
		return vCovered
	case v.Refuted:
		return vRefuted
	}
	return 0
}

// clauseRecord is what the engine knows about one canonical clause. The
// maps are guarded by the engine's mu.
type clauseRecord struct {
	// key is the canonical key the record was created under.
	key string
	// verdicts maps example key → outcome. Isolated failures store "not
	// covered", which is what keeps a panicking example from perturbing
	// later decisions.
	verdicts map[string]verdict
	// armg maps rendered clause → example key → that clause generalized
	// against the example (nil = "no generalization"). Keyed by rendered
	// form because a hit on a renamed-but-equal clause would resurrect
	// another clause's variable naming and break the repair replay's
	// bit-identical-theory contract.
	armg map[string]map[string]*logic.Clause
	// cc is the clause compiled for subsumption, built on the first test
	// that misses the store from whichever twin got there.
	cc atomic.Pointer[subsume.CompiledClause]
}

// record returns c's record, creating it on first sight of its canonical
// key. Clauses are immutable once built, so a pointer identifies its
// record for good: the key — a multi-KB string for a bottom clause — is
// rendered once per pointer and never hashed on the hot probe.
func (ce *CoverageEngine) record(c *logic.Clause) *clauseRecord {
	ce.mu.RLock()
	rec := ce.byPtr[c]
	ce.mu.RUnlock()
	if rec != nil {
		return rec
	}
	key := c.Key()
	ce.mu.Lock()
	defer ce.mu.Unlock()
	if rec = ce.records[key]; rec == nil {
		rec = &clauseRecord{key: key, verdicts: make(map[string]verdict)}
		ce.records[key] = rec
	}
	ce.byPtr[c] = rec
	return rec
}

// compiled returns the record's compiled clause, compiling c on first
// use. Racing first uses compile equivalent forms; one wins.
func (ce *CoverageEngine) compiled(rec *clauseRecord, c *logic.Clause) *subsume.CompiledClause {
	if cc := rec.cc.Load(); cc != nil {
		return cc
	}
	rec.cc.CompareAndSwap(nil, subsume.CompileClause(ce.in, c))
	return rec.cc.Load()
}

// lookup reads a stored verdict, without its carried mark. The first
// read of a carried verdict consumes it: the mark is cleared and the hit
// counted.
func (ce *CoverageEngine) lookup(rec *clauseRecord, key string) (v verdict, ok bool) {
	ce.mu.RLock()
	v, ok = rec.verdicts[key]
	ce.mu.RUnlock()
	if !ok {
		return 0, false
	}
	if v&vCarried != 0 {
		ce.mu.Lock()
		if rec.verdicts[key]&vCarried != 0 {
			rec.verdicts[key] = v &^ vCarried
			ce.carriedHits.Add(1)
		}
		ce.mu.Unlock()
	}
	ce.mc.Inc(metrics.CoverageMemoHits)
	return v &^ vCarried, true
}

func (ce *CoverageEngine) memoize(rec *clauseRecord, key string, v verdict) {
	ce.mu.Lock()
	rec.verdicts[key] = v
	ce.mu.Unlock()
}
