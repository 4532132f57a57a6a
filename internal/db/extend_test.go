package db

import "testing"

func TestExtendSharesRelations(t *testing.T) {
	d := uwFragment(t)
	examples := []Tuple{{"juan", "sarita"}, {"john", "mary"}}
	ext, err := Extend(d, "advisedBy", []string{"stud", "prof"}, examples)
	if err != nil {
		t.Fatal(err)
	}
	// The base relations are shared, not copied.
	if ext.Relation("student") != d.Relation("student") {
		t.Error("Extend must share base relation instances")
	}
	// The extra relation holds the tuples.
	adv := ext.Relation("advisedBy")
	if adv == nil || adv.Len() != 2 {
		t.Fatalf("advisedBy = %v", adv)
	}
	if got := adv.Snapshot()[0]; !got.Equal(Tuple{"juan", "sarita"}) {
		t.Fatalf("tuple 0 = %v", got)
	}
	// The original database is untouched.
	if d.Relation("advisedBy") != nil {
		t.Error("Extend must not mutate the original database")
	}
	if got := ext.Schema().Len(); got != d.Schema().Len()+1 {
		t.Fatalf("extended schema has %d relations", got)
	}
}

func TestExtendErrors(t *testing.T) {
	d := uwFragment(t)
	if _, err := Extend(d, "student", []string{"x"}, nil); err == nil {
		t.Error("duplicate relation name must fail")
	}
	if _, err := Extend(d, "t", []string{"a", "b"}, []Tuple{{"only-one"}}); err == nil {
		t.Error("arity-mismatched tuple must fail")
	}
}

func TestBuildIndexesEager(t *testing.T) {
	d := uwFragment(t)
	d.BuildIndexes()
	// After eager indexing, lookups work (and concurrent readers would
	// not race on lazy construction).
	if got := d.Relation("publication").Lookup(1, "juan"); len(got) != 1 {
		t.Fatalf("Lookup after BuildIndexes = %v", got)
	}
}

// TestPostingsMatchLookup pins the postings view to Lookup's order,
// before and after a commit appends to the postings.
func TestPostingsMatchLookup(t *testing.T) {
	d := uwFragment(t)
	pub := d.Relation("publication")
	check := func(when string) {
		t.Helper()
		for _, attr := range []int{0, 1} {
			for _, v := range pub.DistinctValues(attr) {
				want := pub.Lookup(attr, v)
				tuples, rows := pub.Postings(attr, v)
				if cap(tuples) != len(tuples) || cap(rows) != len(rows) {
					t.Errorf("%s: Postings(%d,%s) is not capped, so an append would write into arrays later versions share", when, attr, v)
				}
				if n := pub.Frequency(attr, v); n != len(want) || len(rows) != len(want) {
					t.Fatalf("%s: Frequency(%d,%s) = %d and %d postings, Lookup holds %d", when, attr, v, n, len(rows), len(want))
				}
				for i, w := range want {
					if got := tuples[rows[i]]; !got.Equal(w) {
						t.Errorf("%s: Postings(%d,%s) row %d = %v, want %v", when, attr, v, i, got, w)
					}
				}
			}
		}
		if tuples, rows := pub.Postings(0, "absent"); len(rows) != 0 || len(tuples) != pub.Len() {
			t.Errorf("%s: Postings of an absent value = %d rows over %d tuples, want 0 over %d", when, len(rows), len(tuples), pub.Len())
		}
	}
	check("loaded")
	if err := pub.InsertBatch([]Tuple{{"p3", "juan"}, {"p1", "mary"}}); err != nil {
		t.Fatal(err)
	}
	check("after insert")
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd must panic on duplicate")
		}
	}()
	s := NewSchema()
	s.MustAdd("r", "a")
	s.MustAdd("r", "a")
}

func TestMustInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustInsert must panic on unknown relation")
		}
	}()
	d := New(NewSchema())
	d.MustInsert("nosuch", "x")
}

func TestWriteCSVDirErrorOnBadPath(t *testing.T) {
	d := uwFragment(t)
	if err := d.WriteCSVDir("/dev/null/not-a-dir"); err == nil {
		t.Fatal("unwritable path must fail")
	}
}
