// Package shard distributes the learner's hot loop — the per-example
// θ-subsumption coverage fan-out that dominates learning cost (paper
// §5) — across processes that are allowed to fail.
//
// A Coordinator installs itself as the engine's CoverageTransport and
// partitions the examples of every block the engine hands it into N
// shards by stable example-key hash, so each shard worker's ground-BC
// cache stays hot for its own range. A Worker is an HTTP service (built on the
// internal/httpx substrate: concurrency caps, timeouts, structured
// errors, graceful drain) wrapping a coverage engine configured
// identically to the coordinator's — identical bias, bottom-clause
// options and subsumption options, enforced by a config fingerprint on
// every request.
//
// The merge contract: because every ground BC is a function of its
// example alone (derived-seed provenance, DESIGN.md §19) and every
// subsumption test is pure, a verdict is a function of
// (configuration, clause, example) — independent of which process
// computes it, in what order, or how many times. The engine screens its
// store and hands the transport only the clauses and examples that have
// a miss; the coordinator computes every pair of that block (no limit,
// no early exit) and reads and writes no store; the engine stores every
// verdict that comes back and counts and clamps itself. So theories and
// decision-driving counters are bit-identical to a single-process run
// under any interleaving of retries and local fallback. See DESIGN.md
// §13.
//
// Failure model: one rule per shard, per request. Up to Options.Retries
// attempts (per-attempt timeout, exponential backoff + jitter honoring
// Retry-After) walk the shard's replicas in order, starting at the one
// that last answered. When they run out, the shard's examples resolve
// in-process, and the shard stays local for the rest of the run; with
// DisableLocalFallback the run aborts with ErrShardsLost instead.
// Every recovery is recorded in the run's Result.Report
// (ShardRetried / ShardFellBackLocal / ShardLost); retries and
// fallbacks are also counted as shard.* metrics. Fault injection
// sites: shard.rpc.send[:<shard>] and
// shard.rpc.batch[:<shard>] (both on every send) and
// shard.rpc.recv[:<shard>] on the coordinator, shard.crash[:<id>] in
// the worker handler.
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"

	"repro/internal/learn"
)

// FingerprintHeader carries the coordinator's config fingerprint on
// every coverage RPC; a worker bound to a different configuration
// answers 409 config_mismatch instead of silently returning verdicts
// from the wrong universe.
const FingerprintHeader = "X-Shard-Fingerprint"

// Batch bounds of one BatchCoverageRequest: the coordinator chunks a
// frontier at MaxBatchClauses, and a worker answers a request over
// either bound 413.
const (
	MaxBatchClauses  = 256
	MaxBatchExamples = 4096
)

// BatchCoverageRequest is one shard RPC: the whole candidate frontier
// for a shard in one round, self-contained. The count limit
// deliberately does not travel: workers resolve every pair so the
// coordinator engine's store is interleaving-independent. The shard group's
// ordered example keys travel inline on every request, so a worker
// holds no per-coordinator state and a restarted worker answers the
// next request as it is.
type BatchCoverageRequest struct {
	Clauses  []string `json:"clauses"`
	Examples []string `json:"examples,omitempty"`
}

// BatchCoverageResponse carries one packed verdict bitset per requested
// clause — bit j of Covered[i] (LSB-first) is clause i's verdict on
// example j of the request's example set. Bitsets ride JSON as base64:
// a full MaxBatchExamples set costs ~700 bytes per clause instead of a
// 20KB JSON []bool array.
type BatchCoverageResponse struct {
	Covered [][]byte `json:"covered"`
}

// PackBits packs verdicts into an LSB-first bitset of ⌈n/8⌉ bytes.
func PackBits(vs []bool) []byte {
	out := make([]byte, (len(vs)+7)/8)
	for i, v := range vs {
		if v {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// UnpackBits expands an LSB-first bitset back to n verdicts; ok is
// false when the bitset's length does not match n.
func UnpackBits(bs []byte, n int) ([]bool, bool) {
	if len(bs) != (n+7)/8 {
		return nil, false
	}
	out := make([]bool, n)
	for i := range out {
		if bs[i/8]&(1<<uint(i%8)) != 0 {
			out[i] = true
		}
	}
	return out, true
}

// EngineFingerprint hashes everything that determines a coverage
// verdict — the schema fingerprint, the bias text, and the engine's
// effective bottom-clause and subsumption options (post-normalization,
// read back from the engine so coordinator and worker hash the values
// actually in force). Two engines with equal fingerprints return equal
// verdicts for every (clause, example).
func EngineFingerprint(e *learn.CoverageEngine, schemaFingerprint, biasText string) string {
	b := e.Builder().Options()
	s := e.SubsumeOptions()
	h := sha256.New()
	fmt.Fprintf(h, "schema=%s\nbias=%s\nbottom=%s/%d/%d/%d/%d\nsubsume=%d/%d\n",
		schemaFingerprint, biasText,
		b.Strategy, b.Depth, b.SampleSize, b.MaxLiterals, b.Seed,
		s.MaxNodes, s.Seed)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// shardFor assigns an example key to a shard. The mapping is a pure
// function of the key (FNV-1a mod N), so an example lands on the same
// shard in every request of a run and across runs — that is what keeps
// each worker's ground-BC cache hot for its range.
func shardFor(key string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}
