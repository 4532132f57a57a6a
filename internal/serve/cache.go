package serve

import (
	"context"
	"hash/fnv"
	"sync"

	"repro/internal/learn"
	"repro/internal/metrics"
)

// entryCache is a serving model's size-aware, admission-controlled LRU
// over ground-BC entries (bottom clause + compiled subsumption index,
// learn.GroundEntry). It replaces the old pin-or-evict-everything sweep:
// entries are charged their estimated byte cost against a fixed budget,
// eviction is per-entry from the cold end, and a doorkeeper admission
// filter keeps one-shot scans from flushing the working set.
//
// Correctness rests on one property the engine guarantees: every entry
// is a pure function of (engine configuration, example)
// (learn.CoverageEngine.BuildEntry), so evicting and rebuilding an entry can
// never change a verdict — the cache only decides who pays the rebuild
// cost, never what the answer is. The differential suite
// (TestCachedUncachedDifferential) pins this against an uncached
// reference engine under randomized eviction pressure.
//
// Concurrent requests for the same missing entry are collapsed with
// singleflight: the first request builds, the rest wait on its result,
// so N concurrent requests for one example pay one BC construction.
type entryCache struct {
	mu sync.Mutex
	// budget and used account estimated entry bytes (SizeBytes plus key
	// overhead). used ≤ budget except transiently inside an insert.
	budget int64
	used   int64
	// entries + an intrusive LRU list (head = most recent). Intrusive so
	// steady-state hits allocate nothing.
	entries map[string]*cacheNode
	head    *cacheNode
	tail    *cacheNode
	// doorkeeper holds keys seen exactly once since the last reset. An
	// entry is admitted only on its second sighting, which makes the
	// cache scan-resistant: a stream of never-repeated examples stays in
	// the doorkeeper (a small string set) and cannot evict entries that
	// have proven reuse. Reset wholesale when it outgrows doorLimit.
	doorkeeper map[string]struct{}
	doorLimit  int
	// inflight collapses concurrent builds of the same key.
	inflight map[string]*flight

	mc        *metrics.Collector
	gaugeName string // per-model gauge prefix, e.g. "serve.model.gp"
}

type cacheNode struct {
	key        string
	ent        *learn.GroundEntry
	cost       int64
	prev, next *cacheNode
}

// flight is one in-progress build; waiters block on done.
type flight struct {
	done chan struct{}
	ent  *learn.GroundEntry
	err  error
}

// newEntryCache returns a cache with the given byte budget. doorLimit
// bounds the doorkeeper set; <=0 selects 4× the plausible entry count
// (budget/1KiB, min 1024).
func newEntryCache(budget int64, mc *metrics.Collector, gaugeName string) *entryCache {
	doorLimit := int(budget / 256)
	if doorLimit < 1024 {
		doorLimit = 1024
	}
	return &entryCache{
		budget:     budget,
		entries:    make(map[string]*cacheNode),
		doorkeeper: make(map[string]struct{}),
		doorLimit:  doorLimit,
		inflight:   make(map[string]*flight),
		mc:         mc,
		gaugeName:  gaugeName,
	}
}

// get returns the cached entry for key, or builds it via build with
// singleflight and runs the admission decision on the result. The
// returned entry is valid whether or not it was admitted.
func (c *entryCache) get(ctx context.Context, key string, build func() (*learn.GroundEntry, error)) (*learn.GroundEntry, error) {
	for {
		c.mu.Lock()
		if n, ok := c.entries[key]; ok {
			c.moveToFront(n)
			c.mu.Unlock()
			c.mc.Inc(metrics.ServeCacheHits)
			return n.ent, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			c.mc.Inc(metrics.ServeSingleflightShared)
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err != nil {
				// The leader may have died to its own cancellation while
				// this waiter is still live; rebuilding is pure, so retry
				// rather than inheriting a foreign ctx error.
				if ctx.Err() == nil && isCtxErr(f.err) {
					continue
				}
				return nil, f.err
			}
			return f.ent, nil
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		c.mc.Inc(metrics.ServeCacheMisses)
		ent, err := build()
		f.ent, f.err = ent, err

		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil {
			c.admit(key, ent)
		}
		c.mu.Unlock()
		close(f.done)
		return ent, err
	}
}

// admit runs the admission decision for a freshly built entry. Called
// with mu held. Admission can only affect cost, never verdicts: a
// rejected entry is still returned to the requester, it just isn't
// cached.
func (c *entryCache) admit(key string, ent *learn.GroundEntry) {
	cost := ent.SizeBytes() + int64(len(key)) + 64 // node + map overhead
	if cost > c.budget {
		// Larger than the whole budget: admitting would evict everything
		// and still not fit.
		c.mc.Inc(metrics.ServeCacheRejects)
		return
	}
	if _, seen := c.doorkeeper[key]; !seen {
		// First sighting: remember it, admit on the second. One-shot
		// scans never displace entries with proven reuse.
		if len(c.doorkeeper) >= c.doorLimit {
			c.doorkeeper = make(map[string]struct{})
		}
		c.doorkeeper[key] = struct{}{}
		c.mc.Inc(metrics.ServeCacheRejects)
		return
	}
	delete(c.doorkeeper, key)
	for c.used+cost > c.budget && c.tail != nil {
		c.evictTail()
	}
	n := &cacheNode{key: key, ent: ent, cost: cost}
	c.entries[key] = n
	c.pushFront(n)
	c.used += cost
	c.mc.Inc(metrics.ServeCacheAdmits)
	c.publishGauges()
}

// evictTail drops the least-recently-used entry. Called with mu held.
func (c *entryCache) evictTail() {
	n := c.tail
	c.unlink(n)
	delete(c.entries, n.key)
	c.used -= n.cost
	c.mc.Inc(metrics.ServeBCEvictions)
}

func (c *entryCache) publishGauges() {
	if !c.mc.Enabled() {
		return
	}
	c.mc.SetNamedGauge(c.gaugeName+".cache_bytes", c.used)
	c.mc.SetNamedGauge(c.gaugeName+".cache_entries", int64(len(c.entries)))
}

// len and bytes report occupancy (for tests and model info).
func (c *entryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *entryCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// --- intrusive LRU list (mu held for all three) ---

func (c *entryCache) pushFront(n *cacheNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *entryCache) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *entryCache) moveToFront(n *cacheNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// verdictMemo memoizes definition-level verdicts per example key. A
// serving model's definition is immutable (swaps install a whole new
// Model), so the verdict is a pure function of the example — which is
// exactly why memoization can never change an answer: entries are only
// ever written with the computed verdict, and dropping them merely
// forces a pure recomputation.
//
// Bounding uses two generations: inserts go to cur; when cur fills, it
// becomes prev and a fresh cur starts; lookups consult both and promote
// prev hits. Memory is bounded by ~2×cap entries with O(1) operations
// and no per-entry bookkeeping.
type verdictMemo struct {
	mu        sync.RWMutex
	cap       int
	cur, prev map[string]bool
}

func newVerdictMemo(capacity int) *verdictMemo {
	return &verdictMemo{cap: capacity, cur: make(map[string]bool)}
}

func (vm *verdictMemo) get(key string) (v, ok bool) {
	vm.mu.RLock()
	if v, ok = vm.cur[key]; ok {
		vm.mu.RUnlock()
		return v, true
	}
	v, ok = vm.prev[key]
	vm.mu.RUnlock()
	if ok {
		// Promote so a rotation doesn't drop a hot entry.
		vm.put(key, v)
	}
	return v, ok
}

func (vm *verdictMemo) put(key string, v bool) {
	vm.mu.Lock()
	if len(vm.cur) >= vm.cap {
		vm.prev = vm.cur
		vm.cur = make(map[string]bool, vm.cap)
	}
	vm.cur[key] = v
	vm.mu.Unlock()
}

func (vm *verdictMemo) size() int {
	vm.mu.RLock()
	defer vm.mu.RUnlock()
	return len(vm.cur) + len(vm.prev)
}

// abHash buckets an example key into [0,100) for deterministic A/B
// split routing: the same example always routes to the same version,
// independent of request order and concurrency.
func abHash(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % 100)
}
