package db

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func mutSchema() *Schema {
	s := NewSchema()
	s.MustAdd("edge", "src", "dst")
	s.MustAdd("label", "node", "tag")
	return s
}

func seedMutDB(t *testing.T) *Database {
	t.Helper()
	d := New(mutSchema())
	for i := 0; i < 40; i++ {
		d.MustInsert("edge", fmt.Sprintf("n%d", i%10), fmt.Sprintf("n%d", (i*3)%10))
		d.MustInsert("label", fmt.Sprintf("n%d", i%10), fmt.Sprintf("t%d", i%4))
	}
	return d
}

// Incremental insert maintenance must leave the index state
// byte-identical to a cold rebuild from the same tuples.
func TestInsertMaintainsIndexesIncrementally(t *testing.T) {
	inc := seedMutDB(t)
	inc.BuildIndexes() // force the incremental path from here on
	cold := seedMutDB(t)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		tp := Tuple{fmt.Sprintf("n%d", r.Intn(25)), fmt.Sprintf("n%d", r.Intn(25))}
		if err := inc.Insert("edge", tp...); err != nil {
			t.Fatal(err)
		}
		if err := cold.Insert("edge", tp...); err != nil {
			t.Fatal(err)
		}
	}
	// cold never built an index: its digest builds them from scratch.
	if got, want := inc.IndexDigest(), cold.IndexDigest(); got != want {
		t.Fatalf("incremental index digest %s != cold rebuild digest %s", got, want)
	}
}

func TestDeleteBatchBagSemantics(t *testing.T) {
	d := New(mutSchema())
	d.MustInsert("edge", "a", "b")
	d.MustInsert("edge", "a", "b")
	d.MustInsert("edge", "a", "c")
	rel := d.Relation("edge")
	if got := rel.Count(Tuple{"a", "b"}); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	if n := rel.DeleteBatch([]Tuple{{"a", "b"}}); n != 1 {
		t.Fatalf("DeleteBatch removed %d, want 1", n)
	}
	if got := rel.Count(Tuple{"a", "b"}); got != 1 {
		t.Fatalf("after delete Count = %d, want 1", got)
	}
	if n := rel.DeleteBatch([]Tuple{{"z", "z"}}); n != 0 {
		t.Fatalf("DeleteBatch of an absent tuple removed %d", n)
	}
	if n := rel.DeleteBatch([]Tuple{{"a", "b"}, {"a", "b"}}); n != 1 {
		t.Fatalf("over-delete removed %d, want 1", n)
	}
	if rel.Len() != 1 {
		t.Fatalf("Len = %d, want 1", rel.Len())
	}
	// Stats reflect the post-delete state after lazy rebuild.
	if got := rel.Frequency(0, "a"); got != 1 {
		t.Fatalf("Frequency(a) = %d, want 1", got)
	}
}

func TestDatabaseVersionMonotonic(t *testing.T) {
	d := seedMutDB(t)
	if d.Version() != 0 {
		t.Fatalf("fresh database version = %d, want 0", d.Version())
	}
	if v, err := d.Commit(map[string][]Tuple{"edge": {{"a", "b"}}}, nil); err != nil || v != 1 {
		t.Fatalf("Commit = %d, %v; want 1", v, err)
	}
	if v, err := d.Commit(nil, map[string][]Tuple{"edge": {{"a", "b"}}}); err != nil || v != 2 {
		t.Fatalf("Commit = %d, %v; want 2", v, err)
	}
	if _, err := d.Commit(map[string][]Tuple{"nosuch": {{"a"}}}, nil); err == nil {
		t.Fatal("Commit into an unknown relation succeeded")
	}
	if _, err := d.Commit(map[string][]Tuple{"edge": {{"a"}}}, nil); err == nil {
		t.Fatal("Commit of a wrong-arity tuple succeeded")
	}
	if d.Version() != 2 {
		t.Fatalf("Version = %d, want 2", d.Version())
	}
}

// TestConcurrentReadDuringMutation is the -race contract for live
// ingestion: readers running every accessor concurrently with batch
// inserts and deletes must never trip the race detector, and every
// reader must observe an internally consistent snapshot (Lookup results
// actually hold the looked-up value).
func TestConcurrentReadDuringMutation(t *testing.T) {
	d := seedMutDB(t)
	d.BuildIndexes()
	rel := d.Relation("edge")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := fmt.Sprintf("n%d", r.Intn(25))
				for _, tp := range rel.Lookup(0, v) {
					if tp[0] != v {
						t.Errorf("Lookup(0,%s) returned tuple %v", v, tp)
						return
					}
				}
				if rel.Frequency(1, v) > rel.Len() {
					t.Error("frequency exceeds relation size")
					return
				}
				_ = rel.DistinctValues(0)
				_ = rel.MaxFrequency(1)
				_ = rel.SelectIn(0, map[string]bool{v: true})
				for _, tp := range rel.Snapshot() {
					if len(tp) != 2 {
						t.Errorf("snapshot tuple %v has wrong arity", tp)
						return
					}
				}
			}
		}(w)
	}

	r := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		var ins []Tuple
		for j := 0; j < 5; j++ {
			ins = append(ins, Tuple{fmt.Sprintf("n%d", r.Intn(25)), fmt.Sprintf("n%d", r.Intn(25))})
		}
		if _, err := d.Commit(map[string][]Tuple{"edge": ins}, nil); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			snap := rel.Snapshot()
			if len(snap) > 0 {
				rel.DeleteBatch([]Tuple{append(Tuple(nil), snap[r.Intn(len(snap))]...)})
			}
		}
	}
	close(stop)
	wg.Wait()
}
