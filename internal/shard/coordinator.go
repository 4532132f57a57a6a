package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/httpx"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/report"
)

// ErrShardsLost reports that a shard's examples could not be resolved:
// every attempt on its replicas failed and local fallback is disabled.
// It wraps context.Canceled so the learner's anytime machinery treats
// shard loss like a cancellation: partial theory, degradation recorded,
// no hard failure.
var ErrShardsLost = fmt.Errorf("shard: coverage shards lost: %w", context.Canceled)

// retryBackoff is the delay before a shard's first retry, doubled per
// attempt with up to 50% jitter and raised to the server's Retry-After
// when one was sent.
const retryBackoff = 25 * time.Millisecond

// maxResponseBytes bounds how much of a worker response the coordinator
// will read.
const maxResponseBytes = 1 << 24

// Options configures a Coordinator.
type Options struct {
	// Shards lists the worker fleet: Shards[i] holds the base URLs of
	// shard i's replicas, any of which can answer for the shard.
	Shards [][]string
	// Fingerprint is the coordinator engine's config fingerprint
	// (EngineFingerprint); sent on every RPC so misconfigured workers
	// answer 409 instead of wrong verdicts. Empty disables the check.
	Fingerprint string
	// RequestTimeout bounds one RPC attempt; <=0 selects 10s.
	RequestTimeout time.Duration
	// Retries is the attempt budget per shard per request (first try
	// included), spread across the shard's replicas in order; <=0
	// selects 3.
	Retries int
	// DisableLocalFallback makes a shard whose attempts ran out abort the
	// run with ErrShardsLost (anytime: partial theory) instead of
	// resolving its examples in-process.
	DisableLocalFallback bool
	// Metrics, when non-nil, receives shard.* gauges.
	Metrics *metrics.Collector
	// Client, when non-nil, overrides the HTTP client (tests inject an
	// httptest transport). When nil the coordinator gets a pool of its
	// own, a clone of http.DefaultTransport: a run has at most one
	// request in flight per replica, and idle connections are kept per
	// host:port, so each replica keeps one warm connection.
	Client *http.Client
}

func (o Options) normalized() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
	return o
}

// shardState is one shard's replica URLs and where its next request goes.
type shardState struct {
	replicas []string
	// last indexes the replica that last answered; a request's first
	// attempt goes there.
	last atomic.Int32
	// local is set when a request runs out of attempts: the shard resolves
	// in-process for the rest of the coordinator's life.
	local atomic.Bool
}

// Coordinator partitions coverage work across the worker fleet and
// implements learn.CoverageTransport: Resolve ships a whole block of
// candidate clauses per shard in one wire round. One coordinator serves
// one learning run's engine (Bind), so a shard that fell back to local
// computation stays local only until the run ends.
type Coordinator struct {
	opts   Options
	client *http.Client
	shards []*shardState
	engine *learn.CoverageEngine
	mc     *metrics.Collector
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
		client = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	}
	shards := make([]*shardState, len(opts.Shards))
	for i, urls := range opts.Shards {
		shards[i] = &shardState{replicas: urls}
	}
	return &Coordinator{
		opts:   opts,
		client: client,
		shards: shards,
		mc:     opts.Metrics,
	}, nil
}

// Bind installs the coordinator as engine's coverage transport.
func (co *Coordinator) Bind(e *learn.CoverageEngine) {
	co.engine = e
	e.SetTransport(co)
}

// Close releases idle connections. Safe after a failed run.
func (co *Coordinator) Close() { co.client.CloseIdleConnections() }

// Resolve implements learn.CoverageTransport: it computes every
// (clause, example) pair it is given and touches no store — the engine
// screened its store before the call and stores what comes back. The
// examples are partitioned by shardFor and the clauses chunked at
// MaxBatchClauses; each chunk fans out, in one wire round, one
// self-contained request to every shard that has examples — one
// pool.Run job per such shard, all of them concurrent. The fan-out
// runs under a per-chunk cancellable context: the first shard to return
// an error (its attempts already exhausted — the count is doomed)
// cancels its siblings immediately instead of letting survivors burn
// their full retry/backoff budgets on a dead run.
func (co *Coordinator) Resolve(ctx context.Context, clauses []*logic.Clause, examples []learn.Example) ([][]bool, error) {
	type group struct {
		keys []string
		exs  []learn.Example
		pos  []int // index into examples
	}
	groups := make([]group, len(co.shards))
	for j, e := range examples {
		key := e.String()
		g := &groups[shardFor(key, len(co.shards))]
		g.keys, g.exs, g.pos = append(g.keys, key), append(g.exs, e), append(g.pos, j)
	}
	var owners []int // shards that own examples: one job each
	for s, g := range groups {
		if len(g.keys) > 0 {
			owners = append(owners, s)
		}
	}
	verdicts := make([][]bool, len(clauses))
	for i := range verdicts {
		verdicts[i] = make([]bool, len(examples))
	}
	for start := 0; start < len(clauses); start += MaxBatchClauses {
		chunk := clauses[start:min(start+MaxBatchClauses, len(clauses))]
		texts := make([]string, len(chunk))
		for i, c := range chunk {
			texts[i] = c.String()
		}
		cctx, cancel := context.WithCancelCause(ctx)
		err := pool.Run(len(owners), len(owners), func(_, k int) error {
			s := owners[k]
			g := groups[s]
			m, err := co.resolveShard(cctx, chunk, s, BatchCoverageRequest{Clauses: texts, Examples: g.keys}, g.exs)
			if err != nil {
				cancel(err)
				return err
			}
			// Shards own disjoint columns, so their writes never meet.
			for i, row := range m {
				for b, j := range g.pos {
					verdicts[start+i][j] = row[b]
				}
			}
			return nil
		})
		cancel(nil)
		if err != nil {
			// The cause is the first failure, not a sibling's echo of the
			// cancellation it triggered.
			return nil, context.Cause(cctx)
		}
	}
	return verdicts, nil
}

// resolveShard applies the failure rule to one shard's request: up to
// Retries attempts across the shard's replicas; once they run out, the
// shard's examples resolve in-process for the rest of the run — or,
// under DisableLocalFallback, the run aborts with ErrShardsLost. The
// returned matrix is clauses × exs, positionally aligned.
func (co *Coordinator) resolveShard(ctx context.Context, clauses []*logic.Clause, s int, req BatchCoverageRequest, exs []learn.Example) ([][]bool, error) {
	sh := co.shards[s]
	if !sh.local.Load() {
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
		if co.opts.DisableLocalFallback {
			co.engine.RecordEvent(report.Event{
				Kind:   report.ShardLost,
				Site:   fmt.Sprintf("shard:%d", s),
				Detail: fmt.Sprintf("%d examples unresolvable: %v", len(exs), err),
			})
			return nil, fmt.Errorf("shard %d: every replica unreachable (%v): %w", s, err, ErrShardsLost)
		}
		if sh.local.CompareAndSwap(false, true) {
			co.mc.Inc(metrics.ShardFallbackLocal)
			co.engine.RecordEvent(report.Event{
				Kind:   report.ShardFellBackLocal,
				Site:   fmt.Sprintf("shard:%d", s),
				Detail: fmt.Sprintf("computed in-process for the rest of the run: %v", err),
			})
		}
	}
	return co.engine.ResolveLocal(ctx, clauses, exs)
}

// tryShard makes up to Retries attempts on shard s, walking its
// replicas in order from the one that last answered, with backoff
// between attempts. Returns the last error when the budget runs out.
func (co *Coordinator) tryShard(ctx context.Context, s int, req BatchCoverageRequest) ([][]bool, error) {
	sh := co.shards[s]
	first := int(sh.last.Load())
	var (
		lastErr    error
		retryAfter time.Duration
	)
	for a := 0; a < co.opts.Retries; a++ {
		if a > 0 {
			co.mc.Inc(metrics.ShardRPCRetried)
			co.engine.RecordEvent(report.Event{
				Kind:   report.ShardRetried,
				Site:   fmt.Sprintf("shard.rpc:%d", s),
				Detail: lastErr.Error(),
			})
			if err := sleep(ctx, backoffDelay(a-1, retryAfter)); err != nil {
				return nil, err
			}
		}
		i := (first + a) % len(sh.replicas)
		verdicts, ra, err := co.send(ctx, s, sh.replicas[i], req)
		if err == nil {
			sh.last.Store(int32(i))
			return verdicts, nil
		}
		if isFatal(err) {
			return nil, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		lastErr, retryAfter = err, ra
	}
	return nil, lastErr
}

// fatalError marks failures that retrying cannot fix (409: the worker was
// built from a different configuration); they abort the run instead of
// retrying or falling back.
type fatalError struct{ error }

func isFatal(err error) bool {
	var fe fatalError
	return errors.As(err, &fe)
}

// send performs one RPC attempt — one HTTP POST — against one replica:
// the self-contained batched request out (wire bytes counted both
// ways), packed bitset verdicts back. The attempt is bounded by
// RequestTimeout and fires the shard.rpc.* faultpoint sites; a 503's
// Retry-After hint is returned with its error.
func (co *Coordinator) send(ctx context.Context, target int, url string, req BatchCoverageRequest) ([][]bool, time.Duration, error) {
	if err := inject(ctx, target, "shard.rpc.send"); err != nil {
		return nil, 0, fmt.Errorf("shard %d: send %s: %w", target, url, err)
	}
	co.mc.Inc(metrics.ShardRPCSent)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, fmt.Errorf("shard %d: marshal: %w", target, err)
	}
	co.mc.Add(metrics.ShardWireBytesSent, int64(len(body)))
	attemptCtx, cancel := context.WithTimeout(ctx, co.opts.RequestTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, url+"/v2/coverage", bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("shard %d: request: %w", target, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if co.opts.Fingerprint != "" {
		hreq.Header.Set(FingerprintHeader, co.opts.Fingerprint)
	}
	resp, err := co.client.Do(hreq)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, 0, cerr
		}
		return nil, 0, fmt.Errorf("shard %d: %s: %w", target, url, err)
	}
	defer resp.Body.Close()
	if err := inject(ctx, target, "shard.rpc.recv"); err != nil {
		return nil, 0, fmt.Errorf("shard %d: recv %s: %w", target, url, err)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, 0, fmt.Errorf("shard %d: read %s: %w", target, url, err)
	}
	co.mc.Add(metrics.ShardWireBytesRecv, int64(len(data)))
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		// config_mismatch: this worker answers for a different universe
		// than the run's.
		detail, _ := httpx.DecodeError(data)
		return nil, 0, fatalError{fmt.Errorf("shard %d: %s: config mismatch (%s): %s", target, url, detail.Code, detail.Message)}
	case http.StatusServiceUnavailable:
		var retryAfter time.Duration
		if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		detail, _ := httpx.DecodeError(data)
		return nil, retryAfter, fmt.Errorf("shard %d: %s overloaded: %s", target, url, detail.Message)
	default:
		if detail, ok := httpx.DecodeError(data); ok {
			return nil, 0, fmt.Errorf("shard %d: %s: %s: %s", target, url, detail.Code, detail.Message)
		}
		return nil, 0, fmt.Errorf("shard %d: %s: status %d", target, url, resp.StatusCode)
	}
	var br BatchCoverageResponse
	if err := json.Unmarshal(data, &br); err != nil {
		return nil, 0, fmt.Errorf("shard %d: decode %s: %w", target, url, err)
	}
	if len(br.Covered) != len(req.Clauses) {
		return nil, 0, fmt.Errorf("shard %d: %s answered %d bitsets for %d clauses", target, url, len(br.Covered), len(req.Clauses))
	}
	m := make([][]bool, len(br.Covered))
	for i, bs := range br.Covered {
		row, ok := UnpackBits(bs, len(req.Examples))
		if !ok {
			return nil, 0, fmt.Errorf("shard %d: %s clause %d bitset is %d bytes for %d examples", target, url, i, len(bs), len(req.Examples))
		}
		m[i] = row
	}
	co.mc.Observe(metrics.HistShardBatchClauses, int64(len(req.Clauses)))
	co.mc.Observe(metrics.HistShardBatchExamples, int64(len(req.Examples)))
	return m, 0, nil
}

// inject fires the faultpoint sites <family> and <family>:<target> in
// order.
func inject(ctx context.Context, target int, family string) error {
	if !faultpoint.Enabled() {
		return nil
	}
	for _, name := range []string{family, fmt.Sprintf("%s:%d", family, target)} {
		if err := faultpoint.Inject(ctx, name); err != nil {
			return err
		}
	}
	return nil
}

// backoffDelay computes the nth retry's wait: retryBackoff·2ⁿ plus up to
// 50% jitter, raised to the server's Retry-After when one was sent.
// Jitter shifts wall-clock only; verdicts never depend on it.
func backoffDelay(n int, retryAfter time.Duration) time.Duration {
	d := retryBackoff << uint(n)
	d += rand.N(d/2 + 1)
	return max(d, retryAfter)
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
