// Package pool is the process's one worker pool: every fan-out — coverage
// tests, armg passes, served prediction batches, cross-validation folds
// and shard RPCs — runs its independent jobs through Run.
package pool

import (
	"sync"
	"sync/atomic"
)

// Run calls job(w, k) once for every k in [0, n) on min(workers, n)
// goroutines, at least one; w in [0, min(workers, n)) names the worker,
// and the calling goroutine is worker 0. Indices are handed out in
// increasing order from one counter, so a worker that finishes a cheap
// job takes the next one instead of idling behind a strided share.
//
// The first error stops the hand-out — every index already handed out
// still runs — and Run returns it. With one worker Run is a plain loop on
// the calling goroutine. No successful job costs an allocation. Run takes
// no context: callers check their own.
func Run(n, workers int, job func(w, k int) error) error {
	nw := max(min(workers, n), 1)
	if nw == 1 {
		for k := range n {
			if err := job(0, k); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  atomic.Int64
		first atomic.Pointer[error]
		wg    sync.WaitGroup
	)
	work := func(w int) {
		for first.Load() == nil {
			k := int(next.Add(1)) - 1
			if k >= n {
				return
			}
			if err := job(w, k); err != nil {
				failed := err // only a failing job moves an error to the heap
				first.CompareAndSwap(nil, &failed)
				return
			}
		}
	}
	wg.Add(nw - 1)
	for w := 1; w < nw; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	if err := first.Load(); err != nil {
		return *err
	}
	return nil
}
