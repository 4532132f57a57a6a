package db

import (
	"fmt"
	"sync"
	"testing"
)

// concurrentWorld builds a relation large enough that index construction
// takes a measurable window, maximizing the chance that the old lazy
// mutate-on-read path races when hammered (run under -race in CI).
func concurrentWorld(t *testing.T, n int) *Database {
	t.Helper()
	s := NewSchema()
	s.MustAdd("edge", "src", "dst", "kind")
	d := New(s)
	for i := 0; i < n; i++ {
		d.MustInsert("edge",
			fmt.Sprintf("n%d", i%97),
			fmt.Sprintf("n%d", (i*31)%89),
			fmt.Sprintf("k%d", i%7))
	}
	return d
}

// TestConcurrentReaders hammers every read-path entry point from many
// goroutines against a freshly loaded relation whose indexes have NOT
// been pre-built, so the lazy per-attribute construction itself is
// exercised concurrently. This is the regression test for the
// mutate-on-read hazard in Relation.buildIndex.
func TestConcurrentReaders(t *testing.T) {
	const tuples = 5000
	d := concurrentWorld(t, tuples)
	r := d.Relation("edge")

	// Ground truth from a private sequential copy.
	ref := concurrentWorld(t, tuples).Relation("edge")
	wantDistinct := [3]int{ref.DistinctCount(0), ref.DistinctCount(1), ref.DistinctCount(2)}
	wantMax := [3]int{ref.MaxFrequency(0), ref.MaxFrequency(1), ref.MaxFrequency(2)}

	values := map[string]bool{"n1": true, "n42": true, "n88": true}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				attr := (w + round) % 3
				if got := r.DistinctCount(attr); got != wantDistinct[attr] {
					errs <- fmt.Errorf("DistinctCount(%d) = %d, want %d", attr, got, wantDistinct[attr])
					return
				}
				if got := r.MaxFrequency(attr); got != wantMax[attr] {
					errs <- fmt.Errorf("MaxFrequency(%d) = %d, want %d", attr, got, wantMax[attr])
					return
				}
				if got := len(r.Lookup(0, "n1")); got != len(ref.Lookup(0, "n1")) {
					errs <- fmt.Errorf("Lookup = %d tuples, want %d", got, len(ref.Lookup(0, "n1")))
					return
				}
				if got := len(r.SelectIn(1, values)); got != len(ref.SelectIn(1, values)) {
					errs <- fmt.Errorf("SelectIn(1) = %d tuples, want %d", got, len(ref.SelectIn(1, values)))
					return
				}
				if got := len(r.SelectIn(2, map[string]bool{"k3": true})); got != len(ref.SelectIn(2, map[string]bool{"k3": true})) {
					errs <- fmt.Errorf("SelectIn mismatch")
					return
				}
				if !r.Contains(0, "n1") || r.Frequency(2, "k0") != ref.Frequency(2, "k0") {
					errs <- fmt.Errorf("Contains/Frequency mismatch")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentReadersAcrossRelations exercises concurrent lazy builds
// through the Database-level surface (the shape parallel CV folds see:
// many goroutines reading a shared database with cold indexes).
func TestConcurrentReadersAcrossRelations(t *testing.T) {
	s := NewSchema()
	s.MustAdd("a", "x", "y")
	s.MustAdd("b", "x", "y")
	d := New(s)
	for i := 0; i < 2000; i++ {
		d.MustInsert("a", fmt.Sprintf("v%d", i%53), fmt.Sprintf("w%d", i%11))
		d.MustInsert("b", fmt.Sprintf("w%d", i%11), fmt.Sprintf("v%d", i%53))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				va := d.Relation("a").DistinctValues(0)
				if len(va) != 53 {
					t.Errorf("a.DistinctValues(0) = %d values, want 53", len(va))
					return
				}
				if got := d.Relation("b").DistinctCount(0); got != 11 {
					t.Errorf("b.DistinctCount(0) = %d, want 11", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
