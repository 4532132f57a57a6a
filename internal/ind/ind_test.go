package ind

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/db"
)

// uwLike builds the UW fragment from the paper's running example:
// publication[person] contains both student and professor names, so the
// exact INDs student[stud] ⊆ publication[person] fail in one direction
// but the approximate INDs publication[person] ⊆ student[stud] hold at
// error 0.5.
func uwLike(t testing.TB) *db.Database {
	t.Helper()
	s := db.NewSchema()
	s.MustAdd("student", "stud")
	s.MustAdd("professor", "prof")
	s.MustAdd("inPhase", "stud", "phase")
	s.MustAdd("publication", "title", "person")
	d := db.New(s)
	for _, st := range []string{"juan", "john", "carlos", "diego"} {
		d.MustInsert("student", st)
		d.MustInsert("inPhase", st, "post_quals")
	}
	for _, pr := range []string{"sarita", "mary", "alan", "arash"} {
		d.MustInsert("professor", pr)
	}
	d.MustInsert("publication", "p1", "juan")
	d.MustInsert("publication", "p1", "sarita")
	d.MustInsert("publication", "p2", "john")
	d.MustInsert("publication", "p2", "mary")
	d.MustInsert("publication", "p3", "carlos")
	d.MustInsert("publication", "p3", "alan")
	d.MustInsert("publication", "p4", "diego")
	d.MustInsert("publication", "p4", "arash")
	return d
}

func findIND(inds []IND, from, to AttrID) (IND, bool) {
	for _, i := range inds {
		if i.From == from && i.To == to {
			return i, true
		}
	}
	return IND{}, false
}

func TestExactINDs(t *testing.T) {
	d := uwLike(t)
	inds := Exact(d)
	// inPhase[stud] ⊆ student[stud] must hold exactly.
	got, ok := findIND(inds, AttrID{"inPhase", 0}, AttrID{"student", 0})
	if !ok || !got.IsExact() {
		t.Fatalf("expected exact IND inPhase[0] ⊆ student[0]; got %v (found=%v)", got, ok)
	}
	// student[stud] ⊆ publication[person] must hold exactly (every student
	// published here).
	if _, ok := findIND(inds, AttrID{"student", 0}, AttrID{"publication", 1}); !ok {
		t.Error("expected exact IND student[0] ⊆ publication[1]")
	}
	// publication[person] ⊄ student[stud]: professors are not students.
	if _, ok := findIND(inds, AttrID{"publication", 1}, AttrID{"student", 0}); ok {
		t.Error("publication[person] ⊆ student[stud] must NOT be exact")
	}
}

func TestApproximateINDs(t *testing.T) {
	d := uwLike(t)
	inds := Discover(d, Options{MaxError: 0.5})
	// Half of publication[person] values are students: error exactly 0.5.
	got, ok := findIND(inds, AttrID{"publication", 1}, AttrID{"student", 0})
	if !ok {
		t.Fatal("expected approximate IND publication[person] ⊆ student[stud] at α=0.5")
	}
	if got.Error != 0.5 {
		t.Fatalf("error = %v, want 0.5", got.Error)
	}
	// ... and the other half are professors.
	got, ok = findIND(inds, AttrID{"publication", 1}, AttrID{"professor", 0})
	if !ok || got.Error != 0.5 {
		t.Fatalf("expected publication[person] ⊆ professor[prof] at 0.5, got %v (found=%v)", got, ok)
	}
	// Stricter threshold must exclude them.
	strict := Discover(d, Options{MaxError: 0.4})
	if _, ok := findIND(strict, AttrID{"publication", 1}, AttrID{"student", 0}); ok {
		t.Error("α=0.4 must exclude an IND with error 0.5")
	}
}

func TestNoSelfOrDisjointINDs(t *testing.T) {
	d := uwLike(t)
	inds := Discover(d, Options{MaxError: 1.0})
	for _, i := range inds {
		if i.From == i.To {
			t.Fatalf("self IND returned: %v", i)
		}
	}
	// Disjoint domains appear only at error 1.0; at 0.99 they must vanish.
	inds = Discover(d, Options{MaxError: 0.99})
	if _, ok := findIND(inds, AttrID{"student", 0}, AttrID{"publication", 0}); ok {
		t.Error("student names must not be included in publication titles")
	}
}

func TestHoldsAgreesWithDiscover(t *testing.T) {
	d := uwLike(t)
	inds := Discover(d, Options{MaxError: 1.0})
	for _, i := range inds {
		got, err := Holds(d, i.From, i.To)
		if err != nil {
			t.Fatal(err)
		}
		if got != i.Error {
			t.Fatalf("Holds(%v)=%v, Discover said %v", i, got, i.Error)
		}
	}
}

func TestHoldsErrors(t *testing.T) {
	d := uwLike(t)
	if _, err := Holds(d, AttrID{"nosuch", 0}, AttrID{"student", 0}); err == nil {
		t.Error("unknown relation must error")
	}
	if _, err := Holds(d, AttrID{"student", 5}, AttrID{"student", 0}); err == nil {
		t.Error("attribute out of range must error")
	}
}

// discoverWith is Discover over nBuckets hash partitions and a
// left-hand-side floor of minLHS distinct values.
func discoverWith(d *db.Database, opts Options, nBuckets, minLHS int) []IND {
	out, _ := discover(context.Background(), d, opts, nBuckets, minLHS)
	return out
}

func TestBucketCountInvariance(t *testing.T) {
	d := uwLike(t)
	base := discoverWith(d, Options{MaxError: 0.5}, 1, minDistinct)
	for _, buckets := range []int{2, 7, 16, 64} {
		got := discoverWith(d, Options{MaxError: 0.5}, buckets, minDistinct)
		if len(got) != len(base) {
			t.Fatalf("buckets=%d: %d INDs, want %d", buckets, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("buckets=%d: IND %d = %v, want %v", buckets, i, got[i], base[i])
			}
		}
	}
}

func TestMinDistinctSkipsSparseAttributes(t *testing.T) {
	d := uwLike(t)
	inds := discoverWith(d, Options{MaxError: 1.0}, buckets, 2)
	for _, i := range inds {
		if i.From == (AttrID{"inPhase", 1}) {
			t.Fatalf("inPhase[phase] has 1 distinct value; must be skipped: %v", i)
		}
	}
}

func TestDeterministicOrder(t *testing.T) {
	d := uwLike(t)
	a := Discover(d, Options{MaxError: 0.5})
	b := Discover(d, Options{MaxError: 0.5})
	if len(a) != len(b) {
		t.Fatal("length differs across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEmptyDatabase(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("r", "a")
	d := db.New(s)
	if got := Discover(d, Options{MaxError: 1.0}); got != nil {
		t.Fatalf("empty database must produce no INDs, got %v", got)
	}
}

// smallDB builds a database from literal rows: each entry maps a
// relation name to its tuples; arity comes from the first tuple and
// attributes are named a0, a1, ... Empty-string values are NULLs.
func smallDB(t *testing.T, rels map[string][][]string) *db.Database {
	t.Helper()
	s := db.NewSchema()
	for name, rows := range rels {
		if len(rows) == 0 {
			t.Fatalf("relation %s needs at least a declaring row; use a row of empty strings for an all-NULL relation", name)
		}
		attrs := make([]string, len(rows[0]))
		for i := range attrs {
			attrs[i] = "a" + string(rune('0'+i))
		}
		s.MustAdd(name, attrs...)
	}
	d := db.New(s)
	for name, rows := range rels {
		for _, row := range rows {
			d.MustInsert(name, row...)
		}
	}
	return d
}

// TestApproxAlphaEdgeCases pins the α boundary semantics and the NULL /
// empty-relation conventions: α=0 keeps only exact INDs, α=1 keeps even
// fully-disjoint pairs, a negative α normalizes to 0, relations with no
// (non-NULL) values participate in no INDs at any α, and NULLs never
// count against an IND on either side.
func TestApproxAlphaEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		rels map[string][][]string
		opts Options
		want []IND       // must all be reported, with these exact errors
		ban  [][2]AttrID // must not be reported
		all  int         // exact total IND count; -1 to skip
	}{
		{
			name: "alpha 0 keeps only exact",
			rels: map[string][][]string{
				"r1": {{"x"}, {"y"}},
				"r2": {{"x"}, {"y"}, {"z"}},
			},
			opts: Options{MaxError: 0},
			want: []IND{{From: AttrID{"r1", 0}, To: AttrID{"r2", 0}, Error: 0}},
			ban:  [][2]AttrID{{{"r2", 0}, {"r1", 0}}},
			all:  1,
		},
		{
			name: "alpha 1 keeps fully disjoint pairs",
			rels: map[string][][]string{
				"r1": {{"x"}},
				"r2": {{"q"}},
			},
			opts: Options{MaxError: 1},
			want: []IND{
				{From: AttrID{"r1", 0}, To: AttrID{"r2", 0}, Error: 1},
				{From: AttrID{"r2", 0}, To: AttrID{"r1", 0}, Error: 1},
			},
			all: 2,
		},
		{
			name: "negative alpha normalizes to exact-only",
			rels: map[string][][]string{
				"r1": {{"x"}},
				"r2": {{"x"}, {"y"}},
			},
			opts: Options{MaxError: -0.5},
			want: []IND{{From: AttrID{"r1", 0}, To: AttrID{"r2", 0}, Error: 0}},
			ban:  [][2]AttrID{{{"r2", 0}, {"r1", 0}}},
			all:  1,
		},
		{
			name: "fractional alpha is an inclusive cutoff",
			rels: map[string][][]string{
				// r2 covers exactly half of r1's two values: error 0.5.
				"r1": {{"x"}, {"y"}},
				"r2": {{"x"}},
			},
			opts: Options{MaxError: 0.5},
			want: []IND{{From: AttrID{"r1", 0}, To: AttrID{"r2", 0}, Error: 0.5}},
			all:  2, // plus the exact r2 ⊆ r1
		},
		{
			name: "empty relation joins no INDs even at alpha 1",
			rels: map[string][][]string{
				"r1":    {{"x"}, {"y"}},
				"r2":    {{"x"}},
				"empty": {{""}}, // a single all-NULL row: zero values
			},
			opts: Options{MaxError: 1},
			ban: [][2]AttrID{
				{{"empty", 0}, {"r1", 0}},
				{{"r1", 0}, {"empty", 0}},
			},
			all: 2,
		},
		{
			name: "all-NULL column behaves as empty",
			rels: map[string][][]string{
				"r1": {{"x", ""}, {"y", ""}},
				"r2": {{"x", "k"}},
			},
			opts: Options{MaxError: 1},
			ban: [][2]AttrID{
				{{"r1", 1}, {"r2", 1}},
				{{"r2", 1}, {"r1", 1}},
				{{"r1", 1}, {"r1", 0}},
			},
			all: -1,
		},
		{
			name: "NULL on the left never counts against an IND",
			rels: map[string][][]string{
				// r1.a0's values are {NULL, x}; only x is checked, so the
				// dependency on r2 is exact.
				"r1": {{""}, {"x"}},
				"r2": {{"x"}, {"y"}},
			},
			opts: Options{MaxError: 0},
			want: []IND{{From: AttrID{"r1", 0}, To: AttrID{"r2", 0}, Error: 0}},
			all:  1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := smallDB(t, tc.rels)
			got := Discover(d, tc.opts)
			for _, w := range tc.want {
				g, ok := findIND(got, w.From, w.To)
				if !ok {
					t.Errorf("missing IND %v (have %v)", w, got)
					continue
				}
				if g.Error != w.Error {
					t.Errorf("%v ⊆ %v: error = %v, want %v", w.From, w.To, g.Error, w.Error)
				}
			}
			for _, b := range tc.ban {
				if g, ok := findIND(got, b[0], b[1]); ok {
					t.Errorf("unwanted IND reported: %v", g)
				}
			}
			if tc.all >= 0 && len(got) != tc.all {
				t.Errorf("total INDs = %d, want %d: %v", len(got), tc.all, got)
			}
		})
	}
}

// TestHoldsNULLSemantics pins the single-candidate checker to the same
// NULL convention as Discover: NULLs are skipped on the left, and an
// all-NULL left-hand side is an error (there is nothing to validate).
func TestHoldsNULLSemantics(t *testing.T) {
	d := smallDB(t, map[string][][]string{
		"r1": {{""}, {"x"}},
		"r2": {{"x"}},
		"nl": {{""}},
	})
	got, err := Holds(d, AttrID{"r1", 0}, AttrID{"r2", 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("NULL-skipping Holds = %v, want 0", got)
	}
	if _, err := Holds(d, AttrID{"nl", 0}, AttrID{"r2", 0}); err == nil {
		t.Error("all-NULL left-hand side must error")
	}
}

// Property: on randomly generated databases, Discover must agree with the
// brute-force Holds check for every reported IND, and must report every
// pair whose brute-force error is within the threshold.
// TestPropOrderInvariance is the schema-independence property at the
// discovery layer (the stress-harness companion to the learner-level
// cross-variant suite): the discovered INDs are a function of database
// CONTENT only. Re-registering relations in a shuffled order and
// re-inserting tuples in a shuffled order must yield the exact same
// sorted output (the sort key is content-based, so not just
// set-equality); permuting a relation's columns must yield the same
// INDs mapped through the permutation.
func TestPropOrderInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	type relSpec struct {
		name   string
		attrs  []string
		tuples [][]string
	}
	for trial := 0; trial < 20; trial++ {
		vals := []string{"x0", "x1", "x2", "x3", "x4", "x5"}
		pick := func() string { return vals[r.Intn(len(vals))] }
		specs := []relSpec{
			{name: "r1", attrs: []string{"a", "b"}},
			{name: "r2", attrs: []string{"c"}},
			{name: "r3", attrs: []string{"d", "e", "f"}},
		}
		for i := range specs {
			for k, n := 0, 2+r.Intn(15); k < n; k++ {
				row := make([]string, len(specs[i].attrs))
				for j := range row {
					row[j] = pick()
				}
				specs[i].tuples = append(specs[i].tuples, row)
			}
		}
		build := func(order []int, colPerm map[string][]int) *db.Database {
			s := db.NewSchema()
			for _, i := range order {
				sp := specs[i]
				attrs := sp.attrs
				if p := colPerm[sp.name]; p != nil {
					attrs = make([]string, len(p))
					for to, from := range p {
						attrs[to] = sp.attrs[from]
					}
				}
				s.MustAdd(sp.name, attrs...)
			}
			d := db.New(s)
			for _, i := range order {
				sp := specs[i]
				rows := append([][]string(nil), sp.tuples...)
				r.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
				for _, row := range rows {
					vs := row
					if p := colPerm[sp.name]; p != nil {
						vs = make([]string, len(p))
						for to, from := range p {
							vs[to] = row[from]
						}
					}
					d.MustInsert(sp.name, vs...)
				}
			}
			return d
		}
		opts, nBuckets := Options{MaxError: float64(r.Intn(11)) / 10}, 1+r.Intn(8)
		base := discoverWith(build([]int{0, 1, 2}, nil), opts, nBuckets, minDistinct)

		// Shuffled declaration + insertion order: byte-for-byte equal.
		order := []int{0, 1, 2}
		r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		shuffled := discoverWith(build(order, nil), opts, nBuckets, minDistinct)
		if len(base) != len(shuffled) {
			t.Fatalf("trial %d: %d INDs on base, %d after reorder", trial, len(base), len(shuffled))
		}
		for i := range base {
			if base[i] != shuffled[i] {
				t.Fatalf("trial %d: output %d differs after reorder: %v vs %v", trial, i, base[i], shuffled[i])
			}
		}

		// Column permutation on r3: INDs map through the permutation.
		// perm[to] = from, so old attr j appears at position inv[j].
		perm := []int{0, 1, 2}
		r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		inv := make([]int, len(perm))
		for to, from := range perm {
			inv[from] = to
		}
		remap := func(a AttrID) AttrID {
			if a.Relation == "r3" {
				a.Attr = inv[a.Attr]
			}
			return a
		}
		permuted := discoverWith(build([]int{0, 1, 2}, map[string][]int{"r3": perm}), opts, nBuckets, minDistinct)
		want := make(map[IND]bool, len(base))
		for _, i := range base {
			want[IND{From: remap(i.From), To: remap(i.To), Error: i.Error}] = true
		}
		if len(permuted) != len(want) {
			t.Fatalf("trial %d: %d INDs on base, %d after column permutation %v", trial, len(want), len(permuted), perm)
		}
		for _, i := range permuted {
			if !want[i] {
				t.Fatalf("trial %d: unexpected IND %v after column permutation %v", trial, i, perm)
			}
		}
	}
}

func TestPropDiscoverCompleteAndSound(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		s := db.NewSchema()
		s.MustAdd("r1", "a", "b")
		s.MustAdd("r2", "c")
		s.MustAdd("r3", "d", "e")
		d := db.New(s)
		vals := []string{"x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"}
		pick := func() string { return vals[r.Intn(len(vals))] }
		for i, n := 0, 5+r.Intn(20); i < n; i++ {
			d.MustInsert("r1", pick(), pick())
		}
		for i, n := 0, 1+r.Intn(10); i < n; i++ {
			d.MustInsert("r2", pick())
		}
		for i, n := 0, 1+r.Intn(10); i < n; i++ {
			d.MustInsert("r3", pick(), pick())
		}
		maxErr := float64(r.Intn(11)) / 10
		got := discoverWith(d, Options{MaxError: maxErr}, 1+r.Intn(8), minDistinct)
		seen := make(map[[2]AttrID]float64)
		for _, i := range got {
			brute, err := Holds(d, i.From, i.To)
			if err != nil {
				t.Fatal(err)
			}
			if brute != i.Error {
				t.Fatalf("sound: %v reported %v, brute force %v", i, i.Error, brute)
			}
			if i.Error > maxErr {
				t.Fatalf("sound: %v exceeds threshold %v", i, maxErr)
			}
			seen[[2]AttrID{i.From, i.To}] = i.Error
		}
		// Completeness over all attribute pairs.
		var ids []AttrID
		for _, name := range d.Schema().Names() {
			rel := d.Relation(name)
			for a := 0; a < rel.Schema.Arity(); a++ {
				if rel.DistinctCount(a) > 0 {
					ids = append(ids, AttrID{name, a})
				}
			}
		}
		for _, from := range ids {
			for _, to := range ids {
				if from == to {
					continue
				}
				brute, err := Holds(d, from, to)
				if err != nil {
					t.Fatal(err)
				}
				if brute <= maxErr {
					if _, ok := seen[[2]AttrID{from, to}]; !ok {
						t.Fatalf("complete: missing IND %v ⊆ %v (error %v ≤ %v)", from, to, brute, maxErr)
					}
				}
			}
		}
	}
}
