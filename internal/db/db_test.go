package db

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func uwFragment(t testing.TB) *Database {
	t.Helper()
	s := NewSchema()
	s.MustAdd("student", "stud")
	s.MustAdd("professor", "prof")
	s.MustAdd("inPhase", "stud", "phase")
	s.MustAdd("hasPosition", "prof", "position")
	s.MustAdd("publication", "title", "person")
	d := New(s)
	d.MustInsert("student", "juan")
	d.MustInsert("student", "john")
	d.MustInsert("professor", "sarita")
	d.MustInsert("professor", "mary")
	d.MustInsert("inPhase", "juan", "post_quals")
	d.MustInsert("inPhase", "john", "post_quals")
	d.MustInsert("hasPosition", "sarita", "assistant_prof")
	d.MustInsert("hasPosition", "mary", "associate_prof")
	d.MustInsert("publication", "p1", "juan")
	d.MustInsert("publication", "p1", "sarita")
	d.MustInsert("publication", "p2", "john")
	d.MustInsert("publication", "p2", "mary")
	return d
}

func TestSchemaAddValidation(t *testing.T) {
	s := NewSchema()
	if err := s.Add("r", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("r", "a"); err == nil {
		t.Error("duplicate relation must be rejected")
	}
	if err := s.Add("empty"); err == nil {
		t.Error("relation without attributes must be rejected")
	}
	if err := s.Add("dup", "a", "a"); err == nil {
		t.Error("duplicate attribute must be rejected")
	}
}

func TestSchemaNamesOrder(t *testing.T) {
	s := NewSchema()
	s.MustAdd("c", "x")
	s.MustAdd("a", "x")
	s.MustAdd("b", "x")
	if got := s.Names(); !reflect.DeepEqual(got, []string{"c", "a", "b"}) {
		t.Fatalf("Names = %v; must preserve registration order", got)
	}
}

func TestAttrIndex(t *testing.T) {
	rs := &RelationSchema{Name: "r", Attributes: []string{"a", "b"}}
	if rs.AttrIndex("b") != 1 {
		t.Error("AttrIndex(b)")
	}
	if rs.AttrIndex("zzz") != -1 {
		t.Error("AttrIndex(missing) must be -1")
	}
}

func TestInsertArityChecked(t *testing.T) {
	d := uwFragment(t)
	if err := d.Insert("student", "a", "b"); err == nil {
		t.Error("wrong arity must be rejected")
	}
	if err := d.Insert("nosuch", "a"); err == nil {
		t.Error("unknown relation must be rejected")
	}
}

func TestLookup(t *testing.T) {
	d := uwFragment(t)
	pub := d.Relation("publication")
	got := pub.Lookup(1, "juan")
	if len(got) != 1 || got[0][0] != "p1" {
		t.Fatalf("Lookup = %v", got)
	}
	if pub.Lookup(1, "nobody") != nil {
		t.Error("missing value must return nil")
	}
}

func TestFrequencyAndMax(t *testing.T) {
	d := uwFragment(t)
	pub := d.Relation("publication")
	if f := pub.Frequency(0, "p1"); f != 2 {
		t.Errorf("Frequency(title=p1) = %d, want 2", f)
	}
	if m := pub.MaxFrequency(0); m != 2 {
		t.Errorf("MaxFrequency(title) = %d, want 2", m)
	}
	if m := pub.MaxFrequency(1); m != 1 {
		t.Errorf("MaxFrequency(person) = %d, want 1", m)
	}
}

func TestDistinct(t *testing.T) {
	d := uwFragment(t)
	ip := d.Relation("inPhase")
	if n := ip.DistinctCount(1); n != 1 {
		t.Errorf("DistinctCount(phase) = %d", n)
	}
	if got := ip.DistinctValues(1); !reflect.DeepEqual(got, []string{"post_quals"}) {
		t.Errorf("DistinctValues = %v", got)
	}
	if got := d.Relation("publication").DistinctValues(0); !reflect.DeepEqual(got, []string{"p1", "p2"}) {
		t.Errorf("DistinctValues sorted = %v", got)
	}
}

func TestSelectIn(t *testing.T) {
	d := uwFragment(t)
	pub := d.Relation("publication")
	got := pub.SelectIn(1, map[string]bool{"juan": true, "sarita": true})
	if len(got) != 2 {
		t.Fatalf("SelectIn = %v", got)
	}
	// Both code paths (small set vs large set) must agree.
	big := map[string]bool{}
	for _, v := range []string{"juan", "sarita", "x1", "x2", "x3", "x4", "x5", "x6"} {
		big[v] = true
	}
	got2 := pub.SelectIn(1, big)
	if len(got2) != 2 {
		t.Fatalf("SelectIn big-set path = %v", got2)
	}
}

func TestSelectInEmptySet(t *testing.T) {
	d := uwFragment(t)
	if got := d.Relation("publication").SelectIn(0, nil); got != nil {
		t.Fatalf("SelectIn(empty) = %v", got)
	}
}

func TestInsertInvalidatesIndex(t *testing.T) {
	d := uwFragment(t)
	st := d.Relation("student")
	if !st.Contains(0, "juan") {
		t.Fatal("juan must be present")
	}
	if err := st.Insert(Tuple{"newstudent"}); err != nil {
		t.Fatal(err)
	}
	if !st.Contains(0, "newstudent") {
		t.Fatal("index must be rebuilt after Insert")
	}
}

func TestTotalTuples(t *testing.T) {
	d := uwFragment(t)
	if got := d.TotalTuples(); got != 12 {
		t.Fatalf("TotalTuples = %d, want 12", got)
	}
}

func TestTupleEqual(t *testing.T) {
	if !(Tuple{"a", "b"}).Equal(Tuple{"a", "b"}) {
		t.Error("equal tuples")
	}
	if (Tuple{"a"}).Equal(Tuple{"a", "b"}) {
		t.Error("different arity")
	}
	if (Tuple{"a", "b"}).Equal(Tuple{"a", "c"}) {
		t.Error("different values")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := uwFragment(t)
	dir := filepath.Join(t.TempDir(), "uw")
	if err := d.WriteCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalTuples() != d.TotalTuples() {
		t.Fatalf("tuples: got %d want %d", back.TotalTuples(), d.TotalTuples())
	}
	wantNames := d.Schema().Names()
	sort.Strings(wantNames)
	if got := back.Schema().Names(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("schema names: got %v want %v", got, wantNames)
	}
	for _, name := range wantNames {
		a, b := d.Relation(name), back.Relation(name)
		if !reflect.DeepEqual(a.Schema.Attributes, b.Schema.Attributes) {
			t.Fatalf("%s attributes differ", name)
		}
		at, bt := a.Snapshot(), b.Snapshot()
		if len(at) != len(bt) {
			t.Fatalf("%s tuple count differs", name)
		}
		for i := range at {
			if !at[i].Equal(bt[i]) {
				t.Fatalf("%s tuple %d differs: %v vs %v", name, i, at[i], bt[i])
			}
		}
	}
}

func TestLoadCSVDirErrors(t *testing.T) {
	if _, err := LoadCSVDir(t.TempDir()); err == nil {
		t.Error("empty dir must fail")
	}
	if _, err := LoadCSVDir(filepath.Join(t.TempDir(), "nosuch")); err == nil {
		t.Error("missing dir must fail")
	}
}

// --- property-based tests -------------------------------------------------

func randomRelation(r *rand.Rand, nTuples int) *Relation {
	s := NewSchema()
	s.MustAdd("r", "a", "b")
	rel := New(s).Relation("r")
	vals := []string{"v0", "v1", "v2", "v3", "v4", "v5"}
	for i := 0; i < nTuples; i++ {
		if err := rel.Insert(Tuple{vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]}); err != nil {
			panic(err)
		}
	}
	return rel
}

// Index-based operations must agree with brute-force scans.
func TestPropIndexMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rel := randomRelation(r, r.Intn(50))
		for attr := 0; attr < 2; attr++ {
			freq := map[string]int{}
			for _, tp := range rel.Snapshot() {
				freq[tp[attr]]++
			}
			for v, want := range freq {
				if got := rel.Frequency(attr, v); got != want {
					t.Fatalf("Frequency(%d,%s)=%d want %d", attr, v, got, want)
				}
				if got := len(rel.Lookup(attr, v)); got != want {
					t.Fatalf("Lookup(%d,%s) len=%d want %d", attr, v, got, want)
				}
			}
			if got := rel.DistinctCount(attr); got != len(freq) {
				t.Fatalf("DistinctCount=%d want %d", got, len(freq))
			}
			max := 0
			for _, n := range freq {
				if n > max {
					max = n
				}
			}
			if got := rel.MaxFrequency(attr); got != max {
				t.Fatalf("MaxFrequency=%d want %d", got, max)
			}
		}
	}
}

func TestPropSelectInPathsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		rel := randomRelation(r, 30)
		set := map[string]bool{}
		for i, n := 0, r.Intn(4); i < n; i++ {
			set["v"+string(rune('0'+r.Intn(6)))] = true
		}
		small := rel.SelectIn(0, set)
		// Force the scan path by growing the set with misses.
		big := map[string]bool{}
		for k := range set {
			big[k] = true
		}
		for i := 0; i < 20; i++ {
			big["miss"+string(rune('a'+i))] = true
		}
		large := rel.SelectIn(0, big)
		if len(small) != len(large) {
			t.Fatalf("paths disagree: %d vs %d", len(small), len(large))
		}
	}
}

func TestQuickTupleEqualReflexive(t *testing.T) {
	f := func(vals []string) bool {
		tp := Tuple(vals)
		return tp.Equal(tp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
