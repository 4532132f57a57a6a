// Package metrics is the system's instrumentation layer: a
// zero-dependency collector of atomic counters, fixed-bucket histograms,
// and per-stage wall-clock spans, threaded through the hot paths the
// paper's §6 identifies as where time goes — bottom-clause construction,
// θ-subsumption coverage testing, and IND discovery.
//
// Collection follows the same zero-cost-when-disabled discipline as
// internal/faultpoint: a disabled collector is a nil *Collector, every
// method is nil-safe and returns immediately, and no call allocates.
// Shipping the instrumentation in hot loops therefore costs one
// predictable nil-check branch; an enabled collector costs one atomic
// add per event.
//
// # Determinism contract
//
// Metrics are split into two classes, reflecting the engine's
// parallel-determinism guarantee (learned theories are bit-identical at
// every worker count, see DESIGN.md §6):
//
//   - Deterministic counters (Snapshot.Counters) count logical work whose
//     total is a pure function of (task, options) — bottom-clause
//     literals generated, ground BCs built, IND candidates
//     validated/pruned, learner rounds/candidates/clauses, examples
//     scored. The differential harness (internal/testkit) asserts these
//     are bit-identical at 1, 4, and 8 workers.
//   - Gauges (Snapshot.Gauges) hold the rest: counts of traffic
//     (serving, shard RPCs, ingest checks), per-worker busy time, and the
//     coverage engine's test totals — coverage.tests, memo and BC-cache
//     hits, subsume.* — which sit here only because the benchmark reads
//     them here. Every coverage count is exact, so those totals are a
//     pure function of (task, options) too: the differential harness
//     compares them by name across worker counts, and no other gauge.
//
// Histograms carry a Deterministic flag with the same meaning. Spans are
// wall-clock and always non-deterministic.
package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CounterID identifies one counter. Counters with Deterministic metadata
// participate in the differential harness's equality checks; the rest
// are reported as gauges.
type CounterID int

// Counter identifiers. The comment notes the incrementing site.
const (
	// BottomConstructions counts bottom-clause builds (variabilized and
	// ground). Deterministic: one per (example, kind) in any full run.
	BottomConstructions CounterID = iota
	// BottomGroundConstructions counts only the ground BC builds feeding
	// θ-subsumption coverage (§5). Deterministic.
	BottomGroundConstructions
	// BottomLiterals counts body literals emitted across all BC builds.
	// Deterministic: sampling RNGs are seeded per example, not per worker.
	BottomLiterals
	// BottomMaxDepth is the deepest Algorithm 2 iteration that found new
	// tuples (max-valued, not summed). Deterministic.
	BottomMaxDepth
	// INDCandidates counts unary IND candidate pairs checked (§3.1).
	// Deterministic: discovery is sequential.
	INDCandidates
	// INDValidated counts candidates kept (error ≤ α). Deterministic.
	INDValidated
	// INDPruned counts candidates rejected (error > α). Deterministic.
	INDPruned
	// LearnRounds counts beam-search generalization rounds. Deterministic.
	LearnRounds
	// LearnCandidates counts candidate clauses scored (armg products and
	// FOIL literals): every one is counted on the positive sample; the
	// beam counts negatives only of those that can still enter it.
	// Deterministic.
	LearnCandidates
	// LearnClauses counts clauses added to the learned definition.
	// Deterministic.
	LearnClauses
	// LearnReduceTrials counts the literal drops negative reduction
	// decided (learn.Learner's reduceClause), accepted or not.
	// Deterministic, like the one below: the trials follow from the
	// verdicts alone.
	LearnReduceTrials
	// LearnReduceFullCounts counts the reduction's counts against its
	// whole negative sample: one per chain of trials, however many
	// trials the count decides.
	LearnReduceFullCounts
	// ARMGApplications counts armg forward passes actually run (memo
	// misses). Deterministic, like the three below: the (clause,
	// example) pairs of a round and each pass's outcome are fixed by the
	// run's seed at every worker count.
	ARMGApplications
	// ARMGMemoHits counts (clause, example) pairs answered from the
	// engine's armg memo, including a pair repeated within one round.
	ARMGMemoHits
	// ARMGLiteralsRefuted counts body literals the forward pass dropped
	// without a subsumption search (subsume.ForwardPass's refuter).
	ARMGLiteralsRefuted
	// ARMGFastPathSkipped counts passes whose whole-clause test ran no
	// search: the pair's stored verdict was proved (covered or refuted),
	// or the refuter answered the test instead of the rest of its search.
	ARMGFastPathSkipped
	// EvalExamples counts held-out examples scored by Evaluate.
	// Deterministic.
	EvalExamples
	// CoverageBCBuilt counts distinct ground BCs entered into the
	// coverage engine's cache. Deterministic: the cached set is the set of
	// distinct examples tested, regardless of worker count.
	CoverageBCBuilt

	// --- gauges: reported under Snapshot.Gauges ---

	// CoverageTests counts θ-subsumption coverage tests actually executed
	// (memo misses). Every count is exact, so the total is fixed by the
	// inputs, identical at every worker count.
	CoverageTests
	// CoverageMemoHits counts per-(clause,example) memo hits. Fixed by
	// the inputs.
	CoverageMemoHits
	// CoverageBCCacheHits counts ground-BC cache hits: a batch of pair
	// work (a resolve's misses, an armg round) probes the cache once per
	// example, and its jobs reuse the entry. Fixed by the inputs.
	CoverageBCCacheHits
	// CoverageBCRebuilt counts ground-BC builds that lost the
	// first-build-wins race (external concurrent callers only). Gauge.
	CoverageBCRebuilt
	// SubsumeTests counts θ-subsumption checks: coverage tests and armg's
	// whole-clause and prefix checks. Fixed by the inputs.
	SubsumeTests
	// SubsumeNodes counts binding attempts across all subsumption passes
	// — the paper's dominant cost (§5). Gauge.
	SubsumeNodes
	// SubsumeBudgetExhausted counts tests that gave up their node budget
	// and answered sound-negative (§5's approximation) — coverage tests
	// and armg's whole-clause and prefix checks alike. It is the one
	// count of the event: the run's report does not record it. Gauge.
	SubsumeBudgetExhausted
	// SubsumeProbeDecided counts tests (of those whose budget lets the
	// search stop for the refuter at all) that the search answered before
	// it got that far. Gauge.
	SubsumeProbeDecided
	// SubsumeRefuted counts tests the refuter answered "does not
	// subsume" at the stop, in place of the rest of the search — tests
	// that would otherwise have run on to a complete or budget-exhausted
	// "no" (DESIGN.md §20). Gauge.
	SubsumeRefuted
	// ServeRequests counts predict requests accepted by the inference
	// server. Gauge: a function of traffic, not of the learning run.
	ServeRequests
	// ServePredictions counts individual tuple classifications served
	// (point requests count 1, batch requests their batch size). Gauge.
	ServePredictions
	// ServeCovered counts served predictions that answered "covered".
	// Gauge.
	ServeCovered
	// ServeErrors counts predict requests that failed (bad input, unknown
	// model, timeout). Gauge.
	ServeErrors
	// ServeModelsLoaded counts model artifacts loaded into the serving
	// registry. Deterministic: a pure function of the models directory.
	ServeModelsLoaded
	// ServeCacheMisses counts cold builds: predictions the verdict memo
	// did not answer, each one a ground-entry build and a definition
	// check. Gauge.
	ServeCacheMisses
	// ServeMemoHits counts predictions answered from a model's verdict
	// memo without touching the engine. Gauge.
	ServeMemoHits
	// ServeLoadShed counts predict requests shed because a model's
	// concurrency budget was exhausted. Gauge.
	ServeLoadShed
	// ServeModelSwaps counts versioned model swaps (hot reloads included).
	// Gauge.
	ServeModelSwaps
	// ServeReloads counts reload sweeps over the models directory. Gauge.
	ServeReloads
	// ShardRPCSent counts coverage RPCs the coordinator sent, retries
	// included. Gauge, like every shard count: retries, local fallback and
	// memo state decide how much traffic a run makes.
	ShardRPCSent
	// ShardRPCRetried counts coverage RPCs the coordinator sent again
	// after a failed attempt. Gauge.
	ShardRPCRetried
	// ShardFallbackLocal counts shard blocks the coordinator resolved in
	// process once a shard's replicas were gone. Gauge.
	ShardFallbackLocal
	// ShardWireBytesSent and ShardWireBytesRecv count request and
	// response body bytes on the coordinator's side of the wire. Gauges.
	ShardWireBytesSent
	ShardWireBytesRecv
	// ShardWorkerRequests counts coverage requests a worker answered;
	// ShardWorkerExamples and ShardWorkerBatchClauses the examples and
	// clauses they carried. Gauges.
	ShardWorkerRequests
	ShardWorkerExamples
	ShardWorkerBatchClauses
	// ShardWorkerPreloadedBCs counts ground BCs a worker built at start
	// for its shard's examples. Gauge.
	ShardWorkerPreloadedBCs
	// IngestExamplesChecked counts cached examples a repair rebuilt and
	// checked against the carried verdicts. Gauge.
	IngestExamplesChecked
	// IngestBatches counts mutation batches committed by the ingest
	// subsystem. Deterministic: a pure function of the applied stream.
	IngestBatches
	// IngestTuplesApplied counts tuples inserted plus tuples deleted by
	// committed batches. Deterministic.
	IngestTuplesApplied
	// IngestExamplesDirty counts training examples invalidated by
	// committed batches (their ground BC could differ on the post-batch
	// database). Deterministic: a pure function of (theory state, batch).
	IngestExamplesDirty
	// IngestClausesInvalidated counts learned clauses whose coverage over
	// the dirty example set changed after a batch. Deterministic.
	IngestClausesInvalidated
	// IngestRepairs counts incremental theory repairs run after commits
	// (the fast no-op path included). Deterministic.
	IngestRepairs

	numCounters
)

// counterKind distinguishes summed counters from max-valued ones.
type counterKind int

const (
	kindSum counterKind = iota
	kindMax
)

type counterDef struct {
	name          string
	deterministic bool
	kind          counterKind
}

// Name returns the counter's stable snapshot key (e.g.
// "bottom.constructions").
func (c CounterID) Name() string { return counterDefs[c].name }

// counterDefs is indexed by CounterID. Names are stable: they appear in
// -metrics JSON files, the /metrics endpoint, and DESIGN.md §9.
var counterDefs = [numCounters]counterDef{
	BottomConstructions:       {"bottom.constructions", true, kindSum},
	BottomGroundConstructions: {"bottom.ground_constructions", true, kindSum},
	BottomLiterals:            {"bottom.literals", true, kindSum},
	BottomMaxDepth:            {"bottom.max_depth", true, kindMax},
	INDCandidates:             {"ind.candidates", true, kindSum},
	INDValidated:              {"ind.validated", true, kindSum},
	INDPruned:                 {"ind.pruned", true, kindSum},
	LearnRounds:               {"learn.rounds", true, kindSum},
	LearnCandidates:           {"learn.candidates", true, kindSum},
	LearnClauses:              {"learn.clauses", true, kindSum},
	LearnReduceTrials:         {"learn.reduce_trials", true, kindSum},
	LearnReduceFullCounts:     {"learn.reduce_full_counts", true, kindSum},
	ARMGApplications:          {"armg.applications", true, kindSum},
	ARMGMemoHits:              {"armg.memo_hits", true, kindSum},
	ARMGLiteralsRefuted:       {"armg.literals_refuted", true, kindSum},
	ARMGFastPathSkipped:       {"armg.fastpath_skipped", true, kindSum},
	EvalExamples:              {"eval.examples_scored", true, kindSum},
	CoverageBCBuilt:           {"coverage.bc_built", true, kindSum},
	CoverageTests:             {"coverage.tests", false, kindSum},
	CoverageMemoHits:          {"coverage.memo_hits", false, kindSum},
	CoverageBCCacheHits:       {"coverage.bc_cache_hits", false, kindSum},
	CoverageBCRebuilt:         {"coverage.bc_rebuilt", false, kindSum},
	SubsumeTests:              {"subsume.tests", false, kindSum},
	SubsumeNodes:              {"subsume.nodes", false, kindSum},
	SubsumeBudgetExhausted:    {"subsume.budget_exhausted", false, kindSum},
	SubsumeProbeDecided:       {"subsume.probe_decided", false, kindSum},
	SubsumeRefuted:            {"subsume.refuted", false, kindSum},
	ServeRequests:             {"serve.requests", false, kindSum},
	ServePredictions:          {"serve.predictions", false, kindSum},
	ServeCovered:              {"serve.predictions_covered", false, kindSum},
	ServeErrors:               {"serve.request_errors", false, kindSum},
	ServeModelsLoaded:         {"serve.models_loaded", true, kindSum},
	ServeCacheMisses:          {"serve.cache_misses", false, kindSum},
	ServeMemoHits:             {"serve.memo_hits", false, kindSum},
	ServeLoadShed:             {"serve.load_shed", false, kindSum},
	ServeModelSwaps:           {"serve.model_swaps", false, kindSum},
	ServeReloads:              {"serve.reloads", false, kindSum},
	ShardRPCSent:              {"shard.rpc_sent", false, kindSum},
	ShardRPCRetried:           {"shard.rpc_retried", false, kindSum},
	ShardFallbackLocal:        {"shard.fallback_local", false, kindSum},
	ShardWireBytesSent:        {"shard.wire_bytes_sent", false, kindSum},
	ShardWireBytesRecv:        {"shard.wire_bytes_recv", false, kindSum},
	ShardWorkerRequests:       {"shard.worker.requests", false, kindSum},
	ShardWorkerExamples:       {"shard.worker.examples", false, kindSum},
	ShardWorkerBatchClauses:   {"shard.worker.batch_clauses", false, kindSum},
	ShardWorkerPreloadedBCs:   {"shard.worker.preloaded_bcs", false, kindSum},
	IngestExamplesChecked:     {"ingest.examples_checked", false, kindSum},
	IngestBatches:             {"ingest.batches", true, kindSum},
	IngestTuplesApplied:       {"ingest.tuples_applied", true, kindSum},
	IngestExamplesDirty:       {"ingest.examples_dirty", true, kindSum},
	IngestClausesInvalidated:  {"ingest.clauses_invalidated", true, kindSum},
	IngestRepairs:             {"ingest.repairs", true, kindSum},
}

// HistID identifies one histogram.
type HistID int

const (
	// HistBottomLiterals distributes BC body sizes. Deterministic.
	HistBottomLiterals HistID = iota
	// HistINDErrorPct distributes validated INDs' error rates, in integer
	// percent. Deterministic.
	HistINDErrorPct
	// HistSubsumeNodes distributes per-test binding attempts. Gauge-class,
	// like the subsume.* totals it sits beside.
	HistSubsumeNodes
	// HistServeBatch distributes predict-request batch sizes. Gauge-class.
	HistServeBatch
	// HistShardBatchClauses distributes how many frontier clauses each
	// batched shard RPC carried. Gauge-class: retries, local fallback
	// and memo state decide how many wire batches a run issues.
	HistShardBatchClauses
	// HistShardBatchExamples distributes how many examples each batched
	// shard RPC covered (the shard group size). Gauge-class.
	HistShardBatchExamples

	numHists
)

type histDef struct {
	name          string
	deterministic bool
	// bounds are inclusive upper bucket bounds ("≤ bound"); one implicit
	// overflow bucket follows. Fixed at compile time so histograms from
	// different runs and worker counts are always comparable.
	bounds []int64
}

var histDefs = [numHists]histDef{
	HistBottomLiterals: {"bottom.literals_per_clause", true,
		[]int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}},
	HistINDErrorPct: {"ind.error_rate_pct", true,
		[]int64{0, 1, 5, 10, 25, 50, 75, 100}},
	HistSubsumeNodes: {"subsume.nodes_per_test", false,
		[]int64{0, 10, 100, 1000, 10000, 100000, 1000000}},
	HistServeBatch: {"serve.batch_size", false,
		[]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}},
	HistShardBatchClauses: {"shard.batch_clauses", false,
		[]int64{1, 2, 4, 8, 16, 32, 64, 128, 256}},
	HistShardBatchExamples: {"shard.batch_examples", false,
		[]int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}},
}

// SpanID identifies one wall-clock stage span.
type SpanID int

const (
	// SpanBiasInduce covers §3 bias induction end to end.
	SpanBiasInduce SpanID = iota
	// SpanINDDiscover covers Binder-style IND discovery (§3.1).
	SpanINDDiscover
	// SpanBottomConstruct covers one bottom-clause build (§2.3.1, §4).
	SpanBottomConstruct
	// SpanCoverageCount covers one coverage count fan-out (§5).
	SpanCoverageCount
	// SpanLearn covers one learning run (Algorithm 1).
	SpanLearn
	// SpanARMG covers one beam-search round's frontier generation: the
	// armg applications of beam × sample, ground-BC fetches included.
	SpanARMG
	// SpanEval covers one held-out evaluation pass.
	SpanEval
	// SpanDatagen covers benchmark dataset generation.
	SpanDatagen
	// SpanServePredict covers one predict request end to end.
	SpanServePredict
	// SpanRepairCheck covers an incremental repair's example check: the
	// carried-state copy and AdoptCarried's rebuild of every cached ground
	// BC, with the re-tests of the changed ones. SpanRepairReplay covers the replay that
	// follows (a learn.run span nests inside it).
	SpanRepairCheck
	SpanRepairReplay
	// SpanIngestCommit covers one accepted ingest batch: validation and
	// the database commit that publishes it (not the commit hook).
	SpanIngestCommit

	numSpans
)

var spanNames = [numSpans]string{
	SpanBiasInduce:      "bias.induce",
	SpanINDDiscover:     "ind.discover",
	SpanBottomConstruct: "bottom.construct",
	SpanCoverageCount:   "coverage.count",
	SpanLearn:           "learn.run",
	SpanARMG:            "learn.armg",
	SpanEval:            "eval.evaluate",
	SpanDatagen:         "datagen.generate",
	SpanServePredict:    "serve.predict",
	SpanRepairCheck:     "repair.check",
	SpanRepairReplay:    "repair.replay",
	SpanIngestCommit:    "ingest.commit",
}

type histState struct {
	counts []atomic.Int64 // len(bounds)+1, last bucket is overflow
	sum    atomic.Int64
	n      atomic.Int64
}

type spanState struct {
	totalNS atomic.Int64
	n       atomic.Int64
}

// Collector accumulates metrics for one run (or, when shared via the
// facade's Options.Collector, across many runs). A nil *Collector is the
// disabled collector: every method no-ops without allocating, so
// instrumented code records unconditionally. All methods are safe for
// concurrent use.
type Collector struct {
	counters [numCounters]atomic.Int64
	hists    [numHists]histState
	spans    [numSpans]spanState

	// workerBusy tracks cumulative busy time per coverage-pool worker
	// index, the one gauge family whose names vary (with the worker
	// index); grown under mu, reported under Snapshot.Gauges.
	mu         sync.Mutex
	workerBusy []int64
}

// New returns an enabled, empty collector.
func New() *Collector {
	c := &Collector{}
	for i := range c.hists {
		c.hists[i].counts = make([]atomic.Int64, len(histDefs[i].bounds)+1)
	}
	return c
}

// Enabled reports whether the collector records (false for nil). Hot
// call sites use it to skip building derived values when disabled.
func (c *Collector) Enabled() bool { return c != nil }

// Inc adds one to a counter.
func (c *Collector) Inc(id CounterID) {
	if c == nil {
		return
	}
	c.counters[id].Add(1)
}

// Add adds delta to a counter.
func (c *Collector) Add(id CounterID, delta int64) {
	if c == nil {
		return
	}
	c.counters[id].Add(delta)
}

// SetMax raises a max-valued counter to v if v is larger.
func (c *Collector) SetMax(id CounterID, v int64) {
	if c == nil {
		return
	}
	for {
		cur := c.counters[id].Load()
		if v <= cur || c.counters[id].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Counter returns a counter's current value (0 when disabled).
func (c *Collector) Counter(id CounterID) int64 {
	if c == nil {
		return 0
	}
	return c.counters[id].Load()
}

// Observe records one histogram observation.
func (c *Collector) Observe(id HistID, v int64) {
	if c == nil {
		return
	}
	h := &c.hists[id]
	h.sum.Add(v)
	h.n.Add(1)
	bounds := histDefs[id].bounds
	for i, b := range bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(bounds)].Add(1)
}

// StartSpan returns the span's start time, or the zero time when
// disabled (so the disabled path never calls time.Now).
func (c *Collector) StartSpan() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// EndSpan records the elapsed wall-clock of a stage started at start.
// A zero start (disabled collector at StartSpan time) records nothing.
func (c *Collector) EndSpan(id SpanID, start time.Time) {
	if c == nil || start.IsZero() {
		return
	}
	c.spans[id].totalNS.Add(int64(time.Since(start)))
	c.spans[id].n.Add(1)
}

// WorkerBusy credits busy wall-clock to one coverage-pool worker index.
// Per-worker utilization is inherently scheduling-dependent and is
// reported under Gauges.
func (c *Collector) WorkerBusy(worker int, d time.Duration) {
	if c == nil || worker < 0 {
		return
	}
	c.mu.Lock()
	for len(c.workerBusy) <= worker {
		c.workerBusy = append(c.workerBusy, 0)
	}
	c.workerBusy[worker] += int64(d)
	c.mu.Unlock()
}

// HistogramSnapshot is one histogram's state at snapshot time. Counts
// has one entry per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	Deterministic bool    `json:"deterministic"`
	Bounds        []int64 `json:"bounds"`
	Counts        []int64 `json:"counts"`
	Count         int64   `json:"count"`
	Sum           int64   `json:"sum"`
}

// SpanSnapshot is one stage's accumulated wall-clock.
type SpanSnapshot struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
}

// Snapshot is a point-in-time copy of a collector, the unit exposed on
// the facade (Result.Metrics), written by the CLIs' -metrics flags, and
// served by cmd/experiments' /metrics endpoint. Counters holds only the
// deterministic counters; everything scheduling-dependent is under
// Gauges (including per-worker busy nanoseconds as
// "coverage.worker_busy_ns.<i>").
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Spans      map[string]SpanSnapshot      `json:"spans"`
}

// Snapshot copies the collector's current state. Snapshotting a live
// collector is safe; the copy is internally consistent per metric but
// not across metrics.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
		Spans:      make(map[string]SpanSnapshot),
	}
	if c == nil {
		return s
	}
	for id, def := range counterDefs {
		v := c.counters[id].Load()
		if def.deterministic {
			s.Counters[def.name] = v
		} else {
			s.Gauges[def.name] = v
		}
	}
	for id, def := range histDefs {
		h := &c.hists[id]
		hs := HistogramSnapshot{
			Deterministic: def.deterministic,
			Bounds:        append([]int64(nil), def.bounds...),
			Counts:        make([]int64, len(h.counts)),
			Count:         h.n.Load(),
			Sum:           h.sum.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[def.name] = hs
	}
	for id, name := range spanNames {
		sp := &c.spans[id]
		if n := sp.n.Load(); n > 0 {
			s.Spans[name] = SpanSnapshot{Count: n, TotalNS: sp.totalNS.Load()}
		}
	}
	c.mu.Lock()
	for w, busy := range c.workerBusy {
		s.Gauges[fmt.Sprintf("coverage.worker_busy_ns.%d", w)] = busy
	}
	c.mu.Unlock()
	return s
}

// DeterministicDiff compares the deterministic portions of two
// snapshots — Counters and deterministic Histograms — and returns one
// human-readable line per divergence (empty means identical). This is
// the equality the differential harness asserts across worker counts.
func (s Snapshot) DeterministicDiff(o Snapshot) []string {
	var diffs []string
	names := make(map[string]bool)
	for k := range s.Counters {
		names[k] = true
	}
	for k := range o.Counters {
		names[k] = true
	}
	sorted := make([]string, 0, len(names))
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if a, b := s.Counters[k], o.Counters[k]; a != b {
			diffs = append(diffs, fmt.Sprintf("counter %s: %d != %d", k, a, b))
		}
	}
	hnames := make(map[string]bool)
	for k, h := range s.Histograms {
		if h.Deterministic {
			hnames[k] = true
		}
	}
	for k, h := range o.Histograms {
		if h.Deterministic {
			hnames[k] = true
		}
	}
	sorted = sorted[:0]
	for k := range hnames {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		a, b := s.Histograms[k], o.Histograms[k]
		if a.Count != b.Count || a.Sum != b.Sum {
			diffs = append(diffs, fmt.Sprintf("histogram %s: count/sum %d/%d != %d/%d", k, a.Count, a.Sum, b.Count, b.Sum))
			continue
		}
		for i := range a.Counts {
			if i < len(b.Counts) && a.Counts[i] != b.Counts[i] {
				diffs = append(diffs, fmt.Sprintf("histogram %s bucket %d: %d != %d", k, i, a.Counts[i], b.Counts[i]))
			}
		}
	}
	return diffs
}

// WriteFile writes the snapshot as indented JSON, the format of the
// CLIs' -metrics flag.
func (s Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
