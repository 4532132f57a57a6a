package learn

import (
	"context"

	"repro/internal/logic"
)

// CoverageTransport computes coverage verdicts on behalf of the engine —
// the seam that lets the learner's hot loop (the per-example
// θ-subsumption fan-out) run somewhere other than this process. It is a
// pure pair computer: the engine screens its store, hands the transport
// only what the store cannot answer, and stores what comes back
// (CoverageEngine.resolve). SetTransport(nil) keeps every count in
// process, bit for bit.
//
// Contract (what keeps the learner's results bit-identical to a
// single-process run):
//
//   - Verdicts are pure. Every ground BC is built with derived-seed
//     provenance (CoverageEngine.buildBC), here and on the remote side
//     alike, so "clause c covers example e" is a function of
//     (configuration, clause, example) — independent of which process
//     computes it, in what order, or how many times (retries).
//   - Every pair is computed: no limit, no early exit, so the engine's
//     store after the call does not depend on scheduling.
//   - No store is touched: the engine memoizes the returned verdicts
//     itself, and stores nothing when the call fails.
//
// A transport that cannot resolve its examples at all returns an error
// wrapping context.Canceled, which the learner treats as a graceful
// anytime cancellation (partial theory, degradation recorded) rather
// than a hard failure.
type CoverageTransport interface {
	// Resolve computes every (clause, example) pair: verdicts[i][j] is
	// clauses[i] on examples[j]. How many wire round-trips pay for the
	// block is the transport's business.
	Resolve(ctx context.Context, clauses []*logic.Clause, examples []Example) ([][]bool, error)
}

// SetTransport routes CountMany's store misses through t; nil restores
// the in-process pool. It changes where verdicts are computed, never
// what they are; Covers, DefinitionCovers and ResolveLocal stay in
// process either way. Must be called before the engine runs tests (same
// contract as SetWorkers).
func (ce *CoverageEngine) SetTransport(t CoverageTransport) { ce.transport = t }
