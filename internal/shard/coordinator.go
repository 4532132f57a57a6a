package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/httpx"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/report"
)

// ErrShardsLost reports that a shard's examples could not be resolved
// anywhere — every replica, every failover target, and (if enabled) the
// local fallback are gone. It wraps context.Canceled so the learner's
// anytime machinery treats total shard loss like a cancellation:
// partial theory, degradation recorded, no hard failure.
var ErrShardsLost = fmt.Errorf("shard: coverage shards lost: %w", context.Canceled)

// downAfterFails is the consecutive-failure threshold before a replica
// is benched: one transient blip retries in place, a dead process stops
// receiving traffic after the second miss.
const downAfterFails = 2

// maxResponseBytes bounds how much of a worker response the coordinator
// will read.
const maxResponseBytes = 1 << 24

// Options configures a Coordinator.
type Options struct {
	// Shards lists the worker fleet: Shards[i] holds the base URLs of
	// shard i's replicas (any replica can answer for its shard; under
	// failover any worker can answer for any shard — verdicts are pure).
	Shards [][]string
	// Fingerprint is the coordinator engine's config fingerprint
	// (EngineFingerprint); sent on every RPC so misconfigured workers
	// answer 409 instead of wrong verdicts. Empty disables the check.
	Fingerprint string
	// RequestTimeout bounds one RPC attempt; <=0 selects 10s.
	RequestTimeout time.Duration
	// Retries is the attempt budget per shard (first try included);
	// <=0 selects 3.
	Retries int
	// RetryBackoff is the base delay before the first retry, doubled per
	// attempt with up to 50% jitter and raised to the server's
	// Retry-After when one was sent; <=0 selects 25ms.
	RetryBackoff time.Duration
	// HedgeDelay, when >0 and a shard has a second replica, fires a
	// hedged duplicate of a straggling first attempt after this long;
	// first answer wins. 0 disables hedging.
	HedgeDelay time.Duration
	// ReplicaCooldown is how long a benched replica sits out before a
	// /readyz probe may revive it; <=0 selects 2s.
	ReplicaCooldown time.Duration
	// DisableLocalFallback turns off the last rung of the failover
	// ladder. With it set, losing every worker aborts the run (anytime:
	// partial theory) instead of degrading to in-process computation.
	DisableLocalFallback bool
	// MaxBatchClauses chunks a candidate frontier into wire batches of
	// at most this many clauses (workers enforce the same cap);
	// <=0 selects 256.
	MaxBatchClauses int
	// JitterSeed seeds retry jitter; 0 selects 1. Jitter shifts
	// wall-clock only — verdicts are pure, so results never depend on it.
	JitterSeed int64
	// Metrics, when non-nil, receives shard.* gauges.
	Metrics *metrics.Collector
	// Client, when non-nil, overrides the HTTP client (tests inject an
	// httptest transport). When nil the coordinator builds one with a
	// connection pool sized to the fleet (see newFleetClient) so steady
	// state re-uses one persistent connection per worker.
	Client *http.Client
}

func (o Options) normalized() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.ReplicaCooldown <= 0 {
		o.ReplicaCooldown = 2 * time.Second
	}
	if o.MaxBatchClauses <= 0 {
		o.MaxBatchClauses = 256
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = 1
	}
	return o
}

// newFleetClient builds the coordinator's default HTTP client: an
// http.Transport whose idle-connection pool is sized to the whole fleet
// (MaxIdleConnsPerHost ≥ total replicas ≥ replicas per host), so the
// steady-state request pattern — every coverage count hits every shard —
// keeps one warm connection per worker and never churns through dials.
// The stdlib default of 2 idle conns per host would close and re-open
// connections on every fan-out wider than 2.
func newFleetClient(shards [][]string) *http.Client {
	total := 0
	for _, reps := range shards {
		total += len(reps)
	}
	perHost := total
	if perHost < 16 {
		perHost = 16
	}
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        2 * perHost,
			MaxIdleConnsPerHost: perHost,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// replica tracks one worker process's passive health and which
// example-set dictionaries it holds.
type replica struct {
	url string

	mu        sync.Mutex
	fails     int
	down      bool
	downUntil time.Time
	// dicts records the example-set fingerprints this replica has
	// registered; a 410 dict_unknown (worker restarted, dictionary gone)
	// forgets the entry and the next send re-registers inline.
	dicts map[string]bool
}

// noteFailure records a connection-level miss; downAfterFails
// consecutive misses bench the replica for cooldown.
func (r *replica) noteFailure(cooldown time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails++
	if r.fails >= downAfterFails {
		r.down = true
		r.downUntil = time.Now().Add(cooldown)
	}
}

func (r *replica) noteSuccess() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails = 0
	r.down = false
}

// state reports whether the replica may receive traffic now, and — when
// benched past its cooldown — whether a revival probe is due.
func (r *replica) state(now time.Time) (available, probeDue bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.down {
		return true, false
	}
	return false, now.After(r.downUntil)
}

func (r *replica) hasDict(fp string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dicts[fp]
}

func (r *replica) noteDict(fp string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dicts == nil {
		r.dicts = make(map[string]bool)
	}
	r.dicts[fp] = true
}

func (r *replica) forgetDict(fp string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.dicts, fp)
}

// Coordinator partitions coverage counts across the worker fleet and
// implements learn.CoverageTransport: CountMany ships a whole candidate
// frontier per shard in one wire round. One coordinator serves one
// learning run's engine (Bind).
type Coordinator struct {
	opts   Options
	client *http.Client
	shards [][]*replica
	engine *learn.CoverageEngine
	mc     *metrics.Collector

	// dataVersion is the ingest data version (internal/ingest) the
	// engine's database is at. Mixed into every example-set dictionary
	// fingerprint (DictFingerprintV), so a committed batch retires all
	// previously registered worker-side dictionaries: the next RPC's
	// fingerprint is new, the coordinator sends the set inline, and the
	// worker re-registers — the same flow as the 410 dict_unknown
	// recovery, with no wire-protocol change.
	dataVersion atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New validates the fleet layout and returns a coordinator. Call Bind
// to attach it to an engine, Close when the run is over.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Shards) == 0 {
		return nil, errors.New("shard: no shards configured")
	}
	for i, reps := range opts.Shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no replicas", i)
		}
	}
	opts = opts.normalized()
	client := opts.Client
	if client == nil {
		client = newFleetClient(opts.Shards)
	}
	shards := make([][]*replica, len(opts.Shards))
	for i, reps := range opts.Shards {
		shards[i] = make([]*replica, len(reps))
		for j, u := range reps {
			shards[i][j] = &replica{url: u}
		}
	}
	return &Coordinator{
		opts:   opts,
		client: client,
		shards: shards,
		mc:     opts.Metrics,
		rng:    rand.New(rand.NewSource(opts.JitterSeed)),
	}, nil
}

// Bind installs the coordinator as engine's coverage transport.
func (co *Coordinator) Bind(e *learn.CoverageEngine) {
	co.engine = e
	e.SetTransport(co)
}

// Shards returns the fleet's shard count.
func (co *Coordinator) Shards() int { return len(co.shards) }

// SetDataVersion records the data version of the coordinator engine's
// database. A version change moves every dictionary fingerprint the
// coordinator computes from here on, which invalidates all worker-side
// example dictionaries registered under earlier versions — stale
// workers simply see an unknown fingerprint and are re-registered
// inline, the 410 dict_unknown recovery path. Safe to call between
// runs; the gauge shard.dict_invalidations counts actual changes.
func (co *Coordinator) SetDataVersion(v uint64) {
	if co.dataVersion.Swap(v) != v {
		co.mc.AddNamedGauge("shard.dict_invalidations", 1)
	}
}

// DataVersion returns the coordinator's current data version.
func (co *Coordinator) DataVersion() uint64 { return co.dataVersion.Load() }

// Close releases idle connections. Safe after a failed run.
func (co *Coordinator) Close() { co.client.CloseIdleConnections() }

type item struct {
	e   learn.Example
	key string
	pos int // index into the count's examples slice
}

// batchReq is one shard's RPC work order: the active frontier's clause
// texts and the shard group's ordered example keys, with the group's
// precomputed dictionary fingerprint.
type batchReq struct {
	clauses []string
	keys    []string
	dict    string
}

// CountMany implements learn.CoverageTransport: the whole candidate
// frontier resolves in one RPC round per shard (chunked at
// MaxBatchClauses).
func (co *Coordinator) CountMany(ctx context.Context, clauses []*logic.Clause, examples []learn.Example, limit int) ([]int, error) {
	counts := make([]int, 0, len(clauses))
	for start := 0; start < len(clauses); start += co.opts.MaxBatchClauses {
		end := min(start+co.opts.MaxBatchClauses, len(clauses))
		ns, err := co.countMany(ctx, clauses[start:end], examples, limit)
		if err != nil {
			return nil, err
		}
		counts = append(counts, ns...)
	}
	return counts, nil
}

// Verdict states in countMany's resolution matrix.
const (
	vUnknown uint8 = 0
	vFalse   uint8 = 1
	vTrue    uint8 = 2
)

// countMany is the merge core: memo-resolved (clause, example) pairs
// are settled locally; clauses with any unresolved pair form the active
// frontier; each shard whose example group has unresolved work receives
// the whole frontier — and its FULL example group, memoized pairs
// included, so the group's dictionary fingerprint stays stable across
// rounds — in one resolveShard walk. Every returned verdict is memoized on the engine
// and per-clause counts clamp at limit. Because workers resolve every
// (clause, example) pair they are sent and verdicts are pure, the memo
// state and counts are identical under any interleaving of retries,
// hedges, and failovers — and identical to a single-process run.
//
// The shard fan-out runs under a per-count cancellable context: the
// first shard to return an error (its ladder already exhausted — the
// count is doomed) cancels its siblings immediately instead of letting
// survivors burn their full retry/backoff budgets on a dead run.
func (co *Coordinator) countMany(ctx context.Context, clauses []*logic.Clause, examples []learn.Example, limit int) ([]int, error) {
	nShards := len(co.shards)
	keys := make([]string, len(examples))
	shardOf := make([]int, len(examples))
	for j, e := range examples {
		keys[j] = e.String()
		shardOf[j] = shardFor(keys[j], nShards)
	}

	state := make([][]uint8, len(clauses))
	var active []int
	for i, c := range clauses {
		row := make([]uint8, len(examples))
		misses := false
		for j, key := range keys {
			if v, ok := co.engine.MemoizedCovers(c, key); ok {
				co.mc.AddNamedGauge("shard.memo_hits", 1)
				if v {
					row[j] = vTrue
				} else {
					row[j] = vFalse
				}
			} else {
				misses = true
			}
		}
		state[i] = row
		if misses {
			active = append(active, i)
		}
	}

	if len(active) > 0 && len(examples) > 0 {
		groups := make([][]item, nShards)
		for j, e := range examples {
			groups[shardOf[j]] = append(groups[shardOf[j]], item{e: e, key: keys[j], pos: j})
		}
		texts := make([]string, len(active))
		activeClauses := make([]*logic.Clause, len(active))
		for ai, i := range active {
			texts[ai] = clauses[i].String()
			activeClauses[ai] = clauses[i]
		}

		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
		)
		for s, grp := range groups {
			if len(grp) == 0 {
				continue
			}
			// Skip shards whose whole group is already settled for every
			// active clause (beam re-scoring answers entirely from memo).
			unresolved := false
		scan:
			for _, i := range active {
				for _, it := range grp {
					if state[i][it.pos] == vUnknown {
						unresolved = true
						break scan
					}
				}
			}
			if !unresolved {
				continue
			}
			gkeys := make([]string, len(grp))
			for j, it := range grp {
				gkeys[j] = it.key
			}
			req := batchReq{clauses: texts, keys: gkeys, dict: DictFingerprintV(co.dataVersion.Load(), gkeys)}
			wg.Add(1)
			go func(s int, grp []item, req batchReq) {
				defer wg.Done()
				verdicts, err := co.resolveShard(cctx, activeClauses, s, req, grp)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
						// The ladder is exhausted: the whole count fails.
						// Cancel sibling shards' in-flight retries now.
						cancel()
					}
					return
				}
				for ai, i := range active {
					for j, it := range grp {
						v := verdicts[ai][j]
						co.engine.MemoizeRemote(clauses[i], it.key, v)
						if v {
							state[i][it.pos] = vTrue
						} else {
							state[i][it.pos] = vFalse
						}
					}
				}
			}(s, grp, req)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}

	counts := make([]int, len(clauses))
	for i := range clauses {
		n := 0
		for _, st := range state[i] {
			if st == vTrue {
				n++
			}
		}
		if n > limit {
			n = limit
		}
		counts[i] = n
	}
	return counts, nil
}

// resolveShard walks the failover ladder for one shard's frontier:
// home replicas (with retries and hedging) → surviving shards in
// deterministic rotation → local in-process fallback → ErrShardsLost.
// The returned matrix is clauses × grp, positionally aligned.
func (co *Coordinator) resolveShard(ctx context.Context, clauses []*logic.Clause, s int, req batchReq, grp []item) ([][]bool, error) {
	verdicts, err := co.tryShard(ctx, s, req)
	if err == nil {
		return verdicts, nil
	}
	if isFatal(err) {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}

	// The home shard is gone; its range re-assigns to survivors. Any
	// worker can answer for any shard — verdicts are pure functions of
	// (config, clause, example) — the home shard was only a cache
	// affinity.
	for d := 1; d < len(co.shards); d++ {
		t := (s + d) % len(co.shards)
		verdicts, ferr := co.tryShard(ctx, t, req)
		if ferr == nil {
			co.mc.AddNamedGauge("shard.failover", 1)
			co.engine.RecordEvent(report.Event{
				Kind:   report.ShardRetried,
				Site:   fmt.Sprintf("shard.failover:%d->%d", s, t),
				Detail: err.Error(),
			})
			return verdicts, nil
		}
		if isFatal(ferr) {
			return nil, ferr
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}

	if !co.opts.DisableLocalFallback {
		co.mc.AddNamedGauge("shard.fallback_local", 1)
		co.engine.RecordEvent(report.Event{
			Kind:   report.ShardFellBackLocal,
			Site:   fmt.Sprintf("shard:%d", s),
			Detail: fmt.Sprintf("%d examples computed in-process: %v", len(grp), err),
		})
		exs := make([]learn.Example, len(grp))
		for j, it := range grp {
			exs[j] = it.e
		}
		return co.engine.ResolveLocal(ctx, clauses, exs)
	}

	co.mc.AddNamedGauge("shard.lost", 1)
	co.engine.RecordEvent(report.Event{
		Kind:   report.ShardLost,
		Site:   fmt.Sprintf("shard:%d", s),
		Detail: fmt.Sprintf("%d examples unresolvable: %v", len(grp), err),
	})
	return nil, fmt.Errorf("shard %d: every replica and failover target unreachable (%v): %w", s, err, ErrShardsLost)
}

// tryShard exhausts one shard's replicas: first attempt (hedged when
// configured), then retries with exponential backoff + jitter, honoring
// Retry-After from load-shedding workers. Returns the last error when
// the attempt budget runs out.
func (co *Coordinator) tryShard(ctx context.Context, target int, req batchReq) ([][]bool, error) {
	reps := co.healthy(target)
	if len(reps) == 0 {
		return nil, fmt.Errorf("shard %d: no healthy replicas", target)
	}
	var (
		lastErr    error
		retryAfter time.Duration
	)
	for a := 0; a < co.opts.Retries; a++ {
		if a > 0 {
			co.mc.AddNamedGauge("shard.rpc_retried", 1)
			co.engine.RecordEvent(report.Event{
				Kind:   report.ShardRetried,
				Site:   fmt.Sprintf("shard.rpc:%d", target),
				Detail: lastErr.Error(),
			})
			if err := co.sleep(ctx, co.backoffDelay(a-1, retryAfter)); err != nil {
				return nil, err
			}
		}
		rep := reps[a%len(reps)]
		var (
			verdicts [][]bool
			err      error
		)
		if a == 0 && co.opts.HedgeDelay > 0 && len(reps) > 1 {
			verdicts, retryAfter, err = co.sendHedged(ctx, target, rep, reps[1], req)
		} else {
			verdicts, retryAfter, err = co.send(ctx, target, rep, req, false)
		}
		if err == nil {
			return verdicts, nil
		}
		if isFatal(err) {
			return nil, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		lastErr = err
	}
	return nil, lastErr
}

// healthy returns the shard's replicas currently eligible for traffic.
// A benched replica whose cooldown expired gets a /readyz probe first —
// traffic only returns to processes that claim readiness (and whose
// fingerprint still matches).
func (co *Coordinator) healthy(target int) []*replica {
	now := time.Now()
	var out []*replica
	for _, r := range co.shards[target] {
		available, probeDue := r.state(now)
		switch {
		case available:
			out = append(out, r)
		case probeDue && co.probeReady(r):
			r.noteSuccess()
			out = append(out, r)
		default:
			// still benched
		}
	}
	return out
}

// probeReady asks a benched replica's /readyz whether it may rejoin.
func (co *Coordinator) probeReady(r *replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), co.opts.RequestTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := co.client.Do(hreq)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if co.opts.Fingerprint != "" {
		var ready struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(data, &ready); err != nil || ready.Fingerprint != co.opts.Fingerprint {
			return false
		}
	}
	return true
}

// fatalError marks failures that retrying cannot fix (409: the worker was
// built from a different configuration, or does not speak this wire
// protocol); they abort the run instead of walking the failover ladder.
type fatalError struct{ error }

func isFatal(err error) bool {
	var fe fatalError
	return errors.As(err, &fe)
}

// send performs one RPC attempt against one replica: one batched round,
// dictionary-referenced examples, bitset verdicts. The example set
// travels by dictionary reference once the replica has registered it; a
// 410 dict_unknown (the worker restarted and lost its dictionaries)
// forgets the registration and re-sends inline in the same attempt. The
// hedge flag selects the faultpoint site family — hedges fire on
// wall-clock timers, so they must never consume hit windows tests arm on
// the deterministic primary-send sites.
func (co *Coordinator) send(ctx context.Context, target int, rep *replica, req batchReq, hedge bool) ([][]bool, time.Duration, error) {
	if faultpoint.Enabled() {
		sites := []string{"shard.rpc.send", "shard.rpc.batch"}
		if hedge {
			sites = []string{"shard.rpc.hedge"}
		}
		for _, site := range sites {
			for _, name := range []string{site, fmt.Sprintf("%s:%d", site, target)} {
				if err := faultpoint.Inject(ctx, name); err != nil {
					rep.noteFailure(co.opts.ReplicaCooldown)
					return nil, 0, fmt.Errorf("shard %d: send %s: %w", target, rep.url, err)
				}
			}
		}
	}
	inline := req.dict == "" || !rep.hasDict(req.dict)
	for attempt := 0; attempt < 2; attempt++ {
		wire := BatchCoverageRequest{Clauses: req.clauses, Dict: req.dict}
		if inline {
			wire.Examples = req.keys
		}
		status, retryAfter, data, err := co.postJSON(ctx, target, rep, wire)
		if err != nil {
			return nil, 0, err
		}
		switch status {
		case http.StatusOK:
			var br BatchCoverageResponse
			if err := json.Unmarshal(data, &br); err != nil {
				return nil, 0, fmt.Errorf("shard %d: decode %s: %w", target, rep.url, err)
			}
			if len(br.Covered) != len(req.clauses) {
				return nil, 0, fmt.Errorf("shard %d: %s answered %d bitsets for %d clauses", target, rep.url, len(br.Covered), len(req.clauses))
			}
			m := make([][]bool, len(br.Covered))
			for i, bs := range br.Covered {
				row, ok := UnpackBits(bs, len(req.keys))
				if !ok {
					return nil, 0, fmt.Errorf("shard %d: %s clause %d bitset is %d bytes for %d examples", target, rep.url, i, len(bs), len(req.keys))
				}
				m[i] = row
			}
			rep.noteSuccess()
			if req.dict != "" {
				if inline {
					rep.noteDict(req.dict)
					co.mc.AddNamedGauge("shard.dict_registers", 1)
				} else {
					co.mc.AddNamedGauge("shard.dict_hits", 1)
				}
			}
			co.mc.Observe(metrics.HistShardBatchClauses, int64(len(req.clauses)))
			co.mc.Observe(metrics.HistShardBatchExamples, int64(len(req.keys)))
			return m, 0, nil
		case http.StatusGone:
			// The worker lost the dictionary (restart). Re-register inline
			// in the next loop iteration; a second 410 is a real error.
			detail, _ := httpx.DecodeError(data)
			rep.forgetDict(req.dict)
			if detail.Code == httpx.ErrCodeDictUnknown && !inline {
				inline = true
				continue
			}
			return nil, 0, fmt.Errorf("shard %d: %s: %s: %s", target, rep.url, detail.Code, detail.Message)
		case http.StatusConflict:
			// config_mismatch or unsupported_proto: either way this worker
			// answers for a different universe than the run's.
			detail, _ := httpx.DecodeError(data)
			return nil, 0, fatalError{fmt.Errorf("shard %d: %s: config mismatch (%s): %s", target, rep.url, detail.Code, detail.Message)}
		case http.StatusServiceUnavailable:
			detail, _ := httpx.DecodeError(data)
			return nil, retryAfter, fmt.Errorf("shard %d: %s overloaded: %s", target, rep.url, detail.Message)
		default:
			rep.noteFailure(co.opts.ReplicaCooldown)
			if detail, ok := httpx.DecodeError(data); ok {
				return nil, 0, fmt.Errorf("shard %d: %s: %s: %s", target, rep.url, detail.Code, detail.Message)
			}
			return nil, 0, fmt.Errorf("shard %d: %s: status %d", target, rep.url, status)
		}
	}
	return nil, 0, fmt.Errorf("shard %d: %s: dictionary re-registration looped", target, rep.url)
}

// postJSON performs one HTTP POST attempt: marshal (wire-bytes
// accounting on both directions), per-attempt timeout, fingerprint and
// protocol-version headers, the shard.rpc.recv faultpoint sites, and a
// bounded body read. Connection-level failures bench the replica;
// status handling is the caller's. retryAfter carries a 503 response's
// Retry-After hint, when one was sent.
func (co *Coordinator) postJSON(ctx context.Context, target int, rep *replica, payload BatchCoverageRequest) (status int, retryAfter time.Duration, data []byte, err error) {
	co.mc.AddNamedGauge("shard.rpc_sent", 1)
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("shard %d: marshal: %w", target, err)
	}
	co.mc.AddNamedGauge("shard.wire_bytes_sent", int64(len(body)))
	attemptCtx, cancel := context.WithTimeout(ctx, co.opts.RequestTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, rep.url+"/v2/coverage", bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("shard %d: request: %w", target, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(ProtoHeader, ProtoV2)
	if co.opts.Fingerprint != "" {
		hreq.Header.Set(FingerprintHeader, co.opts.Fingerprint)
	}
	resp, err := co.client.Do(hreq)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return 0, 0, nil, cerr
		}
		rep.noteFailure(co.opts.ReplicaCooldown)
		return 0, 0, nil, fmt.Errorf("shard %d: %s: %w", target, rep.url, err)
	}
	defer resp.Body.Close()
	if err := faultpoint.Inject(ctx, "shard.rpc.recv"); err != nil {
		rep.noteFailure(co.opts.ReplicaCooldown)
		return 0, 0, nil, fmt.Errorf("shard %d: recv %s: %w", target, rep.url, err)
	}
	if err := faultpoint.Inject(ctx, fmt.Sprintf("shard.rpc.recv:%d", target)); err != nil {
		rep.noteFailure(co.opts.ReplicaCooldown)
		return 0, 0, nil, fmt.Errorf("shard %d: recv %s: %w", target, rep.url, err)
	}
	data, err = io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		rep.noteFailure(co.opts.ReplicaCooldown)
		return 0, 0, nil, fmt.Errorf("shard %d: read %s: %w", target, rep.url, err)
	}
	co.mc.AddNamedGauge("shard.wire_bytes_recv", int64(len(data)))
	if resp.StatusCode == http.StatusServiceUnavailable {
		if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter, data, nil
}

// sendHedged races a primary attempt against a hedge fired after
// HedgeDelay: first answer wins, the loser's context is cancelled. A
// primary failure before the timer returns immediately — the retry
// ladder, not the hedge, handles hard failures.
func (co *Coordinator) sendHedged(ctx context.Context, target int, primary, secondary *replica, req batchReq) ([][]bool, time.Duration, error) {
	type result struct {
		v   [][]bool
		ra  time.Duration
		err error
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan result, 2)
	go func() {
		v, ra, err := co.send(hctx, target, primary, req, false)
		ch <- result{v, ra, err}
	}()
	timer := time.NewTimer(co.opts.HedgeDelay)
	defer timer.Stop()
	outstanding := 1
	launched := false
	var (
		firstErr   error
		retryAfter time.Duration
	)
	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				return r.v, r.ra, nil
			}
			if isFatal(r.err) {
				return nil, 0, r.err
			}
			if firstErr == nil {
				firstErr = r.err
				retryAfter = r.ra
			}
		case <-timer.C:
			if !launched {
				launched = true
				outstanding++
				co.mc.AddNamedGauge("shard.rpc_hedged", 1)
				go func() {
					v, ra, err := co.send(hctx, target, secondary, req, true)
					ch <- result{v, ra, err}
				}()
			}
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	return nil, retryAfter, firstErr
}

// backoffDelay computes the nth retry's wait: base·2ⁿ plus up to 50%
// jitter, raised to the server's Retry-After when one was sent.
func (co *Coordinator) backoffDelay(n int, retryAfter time.Duration) time.Duration {
	d := co.opts.RetryBackoff << uint(n)
	co.rngMu.Lock()
	jitter := time.Duration(co.rng.Int63n(int64(d)/2 + 1))
	co.rngMu.Unlock()
	d += jitter
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

func (co *Coordinator) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
