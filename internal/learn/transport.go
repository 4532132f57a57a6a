package learn

import (
	"context"

	"repro/internal/logic"
)

// CoverageTransport computes bounded coverage counts on behalf of the
// engine — the seam that lets the learner's hot loop (the per-example
// θ-subsumption fan-out) run somewhere other than this process. The
// in-process engine is the identity transport: SetTransport(nil) keeps
// today's behaviour bit for bit.
//
// Contract (what a transport must guarantee so the learner's results
// stay bit-identical to a single-process run):
//
//   - Verdicts are pure. Every ground BC is built with derived-seed
//     provenance (CoverageEngine.buildBC), here and on the remote
//     side alike, so "clause c covers example e" is a function of
//     (configuration, clause, example) — independent of which process
//     computes it, in what order, or how many times (retries).
//   - Every pair is resolved. A call must produce a verdict for every
//     (clause, example) pair it is given (no early exit at limit), so
//     the engine's store after the call does not depend on scheduling.
//   - Verdicts flow back. The transport stores resolved verdicts on the
//     engine (MemoizeRemote) so later per-example queries — the
//     covering loop's positive removal, final accounting — reuse them
//     instead of recomputing locally.
//
// Errors: a transport that cannot resolve its examples at all returns
// an error wrapping context.Canceled, which the learner treats as a
// graceful anytime cancellation (partial theory, degradation recorded)
// rather than a hard failure.
type CoverageTransport interface {
	// CountMany resolves a whole candidate frontier against one example
	// set, returning min(covered, limit) per clause, positionally aligned
	// with clauses. How many wire round-trips pay for the frontier is the
	// transport's business.
	CountMany(ctx context.Context, clauses []*logic.Clause, examples []Example, limit int) ([]int, error)
}

// SetTransport routes CountMany through t; nil restores the in-process
// pool. It changes where verdicts are computed, never what they are.
// Must be called before the engine runs tests (same contract as
// SetWorkers).
func (ce *CoverageEngine) SetTransport(t CoverageTransport) { ce.transport = t }

// MemoizedCovers returns the stored verdict for (c, example key), if the
// pair has been resolved before — locally, by an earlier remote
// response, or by the previous run an incremental repair carried over.
// Transports consult it so settled pairs are never shipped.
func (ce *CoverageEngine) MemoizedCovers(c *logic.Clause, key string) (v, ok bool) {
	return ce.lookup(ce.record(c), key)
}

// MemoizeRemote records a remotely computed verdict for (c, example
// key). Remote verdicts are pure (see CoverageTransport), so a
// duplicate arrival — a retry re-delivering a verdict, or a local
// fallback recomputing one — writes the same value and the store stays
// deterministic under any interleaving.
func (ce *CoverageEngine) MemoizeRemote(c *logic.Clause, key string, v bool) {
	ce.memoize(ce.record(c), key, v)
}
