package pool

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunEachIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 1000} {
			runs := make([]atomic.Int32, n)
			limit := max(min(workers, n), 1)
			err := Run(n, workers, func(w, k int) error {
				if w < 0 || w >= limit {
					t.Errorf("workers=%d n=%d: job ran as worker %d, want one of [0, %d)", workers, n, w, limit)
				}
				runs[k].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for k := range runs {
				if got := runs[k].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, k, got)
				}
			}
		}
	}
}

func TestRunOneWorkerInOrder(t *testing.T) {
	var got []int
	if err := Run(100, 1, func(w, k int) error {
		if w != 0 {
			t.Fatalf("one worker ran as worker %d", w)
		}
		got = append(got, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for k, g := range got {
		if g != k {
			t.Fatalf("position %d ran index %d; want indices in order 0..n-1", k, g)
		}
	}
	if len(got) != 100 {
		t.Fatalf("ran %d indices, want 100", len(got))
	}
}

func TestRunReturnsFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := Run(10, 1, func(_, k int) error {
		ran = append(ran, k)
		if k == 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("Run = %v, want %v", err, boom)
	}
	if len(ran) != 4 || ran[3] != 3 {
		t.Fatalf("one worker ran %v after failing at index 3", ran)
	}

	for _, workers := range []int{2, 8} {
		err := Run(1000, workers, func(_, k int) error {
			if k == 0 {
				return boom
			}
			return nil
		})
		if err != boom {
			t.Fatalf("workers=%d: Run = %v, want %v", workers, err, boom)
		}
	}
}

func TestRunOneWorkerAllocatesNothing(t *testing.T) {
	noop := func(_, _ int) error { return nil }
	if a := testing.AllocsPerRun(10, func() { _ = Run(1024, 1, noop) }); a != 0 {
		t.Fatalf("Run(1024, 1, noop) made %v allocations, want 0", a)
	}
}
