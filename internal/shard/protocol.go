// Package shard distributes the learner's hot loop — the per-example
// θ-subsumption coverage fan-out that dominates learning cost (paper
// §5) — across processes that are allowed to fail.
//
// A Coordinator installs itself as the engine's CoverageTransport and
// partitions every coverage count's examples into N shards by stable
// example-key hash, so each shard worker's ground-BC cache stays hot
// for its own range. A Worker is an HTTP service (built on the
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
// computes it, in what order, or how many times. Workers resolve every
// example of a request (no early exit at the count limit), the
// coordinator memoizes every verdict it receives, and per-shard counts
// merge by summation with a final clamp — min(Σcᵢ, limit) — so
// theories and decision-driving counters are bit-identical to a
// single-process run under any interleaving of retries, hedges, and
// failovers. See DESIGN.md §13.
//
// Failure model: per-attempt timeouts with exponential backoff + jitter
// honoring Retry-After; hedged requests for stragglers; passive replica
// health tracking with /readyz revival probes; automatic re-assignment
// of a dead shard's example range to surviving shards; and graceful
// degradation to in-process computation when every worker is gone.
// Every recovery is recorded in the run's Result.Report
// (ShardRetried / ShardFellBackLocal / ShardLost) and surfaced as
// shard.* metrics. Fault injection sites: shard.rpc.send[:<shard>],
// shard.rpc.batch[:<shard>] (both on every primary send),
// shard.rpc.recv[:<shard>] and shard.rpc.hedge[:<shard>] on the
// coordinator, shard.crash[:<id>] in the worker handler.
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

// ProtoHeader carries the wire-protocol version on every coverage RPC.
// There is one protocol, ProtoV2: the batched frontier protocol
// (BatchCoverageRequest) with dictionary-referenced example sets and
// packed bitset verdicts. A worker that sees any other declared version
// answers a structured 409 (httpx.ErrCodeUnsupportedProto) instead of
// guessing, and the coordinator treats that like a config mismatch: the
// fleet was not built for this run.
const (
	ProtoHeader = "X-Shard-Proto"
	ProtoV2     = "2"
)

// BatchCoverageRequest is one shard RPC: the whole candidate frontier
// for a shard in one round. The count limit deliberately does not
// travel: workers resolve every pair so the coordinator's store is
// interleaving-independent. The example set travels either
// inline (Examples) or by reference (Dict alone): the coordinator
// registers a shard's stable example range once — keyed by the set's
// fingerprint — and subsequent frontiers reference it by id instead of
// re-shipping up to 10⁶ example-key strings per evaluation. When both
// are present the worker (re-)registers the set under Dict and answers
// in the same round; a Dict the worker does not hold (it restarted)
// answers 410 dict_unknown and the coordinator re-sends inline.
type BatchCoverageRequest struct {
	Clauses []string `json:"clauses"`
	// Dict is the example set's fingerprint (DictFingerprint over the
	// ordered keys). Optional: empty means the set travels inline only.
	Dict string `json:"dict,omitempty"`
	// Examples carries the ordered example keys inline; empty references
	// a previously registered Dict.
	Examples []string `json:"examples,omitempty"`
}

// BatchCoverageResponse carries one packed verdict bitset per requested
// clause — bit j of Covered[i] (LSB-first) is clause i's verdict on
// example j of the request's example set — plus the worker's
// subsumption-test count (observability only). Bitsets ride JSON as
// base64, so a 10⁶-example set costs ~167KB per clause instead of a
// multi-megabyte JSON []bool array.
type BatchCoverageResponse struct {
	Covered [][]byte `json:"covered"`
	Tests   int64    `json:"tests"`
}

// DictFingerprint fingerprints an ordered example-key list for the
// wire-v2 example-set dictionary. Order matters — verdict bitsets align
// positionally — so the hash is over the length-prefixed keys in
// sequence. SHA-256 (truncated like EngineFingerprint) keeps accidental
// collisions out of the question: a collision would silently misalign
// verdicts, so the cheap-hash shortcut is not taken here.
func DictFingerprint(keys []string) string {
	return DictFingerprintV(0, keys)
}

// DictFingerprintV is DictFingerprint salted with the ingest data
// version the coordinator's database is at. Version 0 (static loads)
// reproduces the unsalted legacy fingerprint byte for byte, so old
// coordinators and workers interoperate unchanged; any committed batch
// moves the fingerprint, retiring every dictionary registered under
// earlier versions through the ordinary re-registration flow.
func DictFingerprintV(version uint64, keys []string) string {
	h := sha256.New()
	if version != 0 {
		fmt.Fprintf(h, "v%d;", version)
	}
	for _, k := range keys {
		fmt.Fprintf(h, "%d:", len(k))
		h.Write([]byte(k))
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
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
