package serve

import "sync"

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
