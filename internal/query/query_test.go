package query

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/logic"
)

func uwDB(t testing.TB) *db.Database {
	t.Helper()
	s := db.NewSchema()
	s.MustAdd("student", "stud")
	s.MustAdd("professor", "prof")
	s.MustAdd("inPhase", "stud", "phase")
	s.MustAdd("publication", "title", "person")
	d := db.New(s)
	d.MustInsert("student", "juan")
	d.MustInsert("student", "john")
	d.MustInsert("professor", "sarita")
	d.MustInsert("professor", "mary")
	d.MustInsert("inPhase", "juan", "post_quals")
	d.MustInsert("inPhase", "john", "pre_quals")
	d.MustInsert("publication", "p1", "juan")
	d.MustInsert("publication", "p1", "sarita")
	d.MustInsert("publication", "p2", "john")
	d.MustInsert("publication", "p3", "mary")
	return d
}

func mustClause(t testing.TB, s string) *logic.Clause {
	t.Helper()
	c, err := logic.ParseClause(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ex(pred string, vals ...string) logic.Literal {
	terms := make([]logic.Term, len(vals))
	for i, v := range vals {
		terms[i] = logic.Const(v)
	}
	return logic.Literal{Predicate: pred, Terms: terms}
}

func TestCoversBasic(t *testing.T) {
	e := New(uwDB(t), Options{})
	copub := mustClause(t, "advisedBy(X,Y) :- student(X), professor(Y), publication(Z,X), publication(Z,Y).")
	cases := []struct {
		example logic.Literal
		want    bool
	}{
		{ex("advisedBy", "juan", "sarita"), true},  // co-authors of p1
		{ex("advisedBy", "john", "mary"), false},   // p2 and p3 are different
		{ex("advisedBy", "juan", "mary"), false},   // no shared title
		{ex("advisedBy", "sarita", "juan"), false}, // sarita is not a student
		{ex("advisedBy", "nobody", "sarita"), false} /* unknown constant */}
	for _, tc := range cases {
		got, err := e.Covers(copub, tc.example)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Covers(%v) = %v, want %v", tc.example, got, tc.want)
		}
	}
}

func TestCoversConstantsInBody(t *testing.T) {
	e := New(uwDB(t), Options{})
	phased := mustClause(t, "advisedBy(X,Y) :- inPhase(X,post_quals), professor(Y).")
	ok, err := e.Covers(phased, ex("advisedBy", "juan", "sarita"))
	if err != nil || !ok {
		t.Fatalf("juan is post_quals: %v %v", ok, err)
	}
	ok, err = e.Covers(phased, ex("advisedBy", "john", "sarita"))
	if err != nil || ok {
		t.Fatalf("john is pre_quals: %v %v", ok, err)
	}
}

func TestCoversHeadEdgeCases(t *testing.T) {
	e := New(uwDB(t), Options{})
	c := mustClause(t, "advisedBy(X,X) :- student(X).")
	ok, err := e.Covers(c, ex("advisedBy", "juan", "sarita"))
	if err != nil || ok {
		t.Fatal("repeated head variable on distinct constants must not cover")
	}
	ok, err = e.Covers(c, ex("advisedBy", "juan", "juan"))
	if err != nil || !ok {
		t.Fatal("repeated head variable on equal constants must cover")
	}
	other := mustClause(t, "other(X) :- student(X).")
	ok, err = e.Covers(other, ex("advisedBy", "juan", "sarita"))
	if err != nil || ok {
		t.Fatal("different head predicate must not cover")
	}
	empty := mustClause(t, "advisedBy(X,Y).")
	ok, err = e.Covers(empty, ex("advisedBy", "juan", "sarita"))
	if err != nil || !ok {
		t.Fatal("empty body covers everything")
	}

	// Values the database does not hold bind like any other value, and
	// two of them are equal only when their names are.
	cases := []struct {
		clause  string
		example logic.Literal
		want    bool
	}{
		{"advisedBy(X,Y) :- professor(Y).", ex("advisedBy", "ghost", "sarita"), true},
		{"advisedBy(X,Y) :- student(X).", ex("advisedBy", "juan", "ghost"), true},
		{"advisedBy(X,X).", ex("advisedBy", "ghost1", "ghost2"), false},
		{"advisedBy(X,X).", ex("advisedBy", "ghost1", "ghost1"), true},
		{"advisedBy(X,ghost1) :- student(X).", ex("advisedBy", "juan", "ghost2"), false},
		{"advisedBy(X,ghost1) :- student(X).", ex("advisedBy", "juan", "ghost1"), true},
		// A head predicate the database does not hold.
		{"nosuchTarget(X) :- student(X).", ex("nosuchTarget", "juan"), true},
		{"nosuchTarget(X) :- student(X).", ex("nosuchTarget", "sarita"), false},
	}
	for _, tc := range cases {
		ok, err := e.Covers(mustClause(t, tc.clause), tc.example)
		if err != nil || ok != tc.want {
			t.Errorf("Covers(%s, %v) = %v, %v; want %v", tc.clause, tc.example, ok, err, tc.want)
		}
	}
}

func TestCoversErrors(t *testing.T) {
	e := New(uwDB(t), Options{})
	wrongArity := mustClause(t, "advisedBy(X,Y) :- student(X,Y).")
	if _, err := e.Covers(wrongArity, ex("advisedBy", "a", "b")); err == nil {
		t.Error("arity mismatch must error")
	}
	c := mustClause(t, "advisedBy(X,Y) :- student(X).")
	ng := logic.Literal{Predicate: "advisedBy", Terms: []logic.Term{logic.Var("X"), logic.Const("y")}}
	if _, err := e.Covers(c, ng); err == nil {
		t.Error("non-ground example must error")
	}
}

func TestCoversMissingRelation(t *testing.T) {
	e := New(uwDB(t), Options{})
	c := mustClause(t, "advisedBy(X,Y) :- nosuch(X).")
	ok, err := e.Covers(c, ex("advisedBy", "juan", "sarita"))
	if err != nil || ok {
		t.Fatal("missing relation means the clause derives nothing")
	}
}

func TestDefinitionCovers(t *testing.T) {
	e := New(uwDB(t), Options{})
	def := &logic.Definition{Target: "advisedBy"}
	def.Add(mustClause(t, "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y), professor(Y), student(X)."))
	def.Add(mustClause(t, "advisedBy(X,Y) :- inPhase(X,pre_quals), professor(Y)."))
	ok, err := e.DefinitionCovers(def, ex("advisedBy", "john", "mary"))
	if err != nil || !ok {
		t.Fatal("second clause covers john (pre_quals)")
	}
	ok, err = e.DefinitionCovers(def, ex("advisedBy", "juan", "mary"))
	if err != nil || ok {
		t.Fatal("neither clause covers juan/mary")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// A clause whose join search cannot finish within the budget must
	// return ErrBudget rather than a silent wrong answer.
	s := db.NewSchema()
	s.MustAdd("e", "a", "b")
	d := db.New(s)
	// No triangle passes through "seed": seed points into H1, H2 points
	// at seed, and every H1→H2 edge is omitted — yet seed has both out-
	// and in-edges, so no single-literal index lookup can fail fast. The
	// 3-cycle query below must therefore backtrack through ~15×14 partial
	// assignments before concluding "no", far beyond a 50-node budget.
	h1 := func(i int) string { return fmt.Sprintf("h1_%d", i) }
	h2 := func(i int) string { return fmt.Sprintf("h2_%d", i) }
	for i := 0; i < 15; i++ {
		d.MustInsert("e", "seed", h1(i))
		d.MustInsert("e", h2(i), "seed")
		for j := 0; j < 15; j++ {
			if i != j {
				d.MustInsert("e", h1(i), h1(j)) // H1 internal edges
				d.MustInsert("e", h2(i), h2(j)) // H2 internal edges
			}
			d.MustInsert("e", h2(i), h1(j)) // H2→H1 allowed; H1→H2 omitted
		}
	}
	eng := New(d, Options{MaxNodes: 50})
	c := mustClause(t, "t(X) :- e(X,A), e(A,B), e(B,X).")
	_, err := eng.Covers(c, ex("t", "seed"))
	if err != ErrBudget {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	// With a generous budget the same query completes exactly (false).
	big := New(d, Options{MaxNodes: 1000000})
	ok, err := big.Covers(c, ex("t", "seed"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("no triangle passes through seed")
	}
}

func TestBindings(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("directed", "person", "movie")
	s.MustAdd("genre", "movie", "g")
	d := db.New(s)
	d.MustInsert("directed", "ana", "m1")
	d.MustInsert("directed", "bob", "m2")
	d.MustInsert("directed", "cyn", "m3")
	d.MustInsert("genre", "m1", "drama")
	d.MustInsert("genre", "m2", "comedy")
	d.MustInsert("genre", "m3", "drama")
	e := New(d, Options{})
	c := mustClause(t, "dramaDirector(P) :- directed(P,M), genre(M,drama).")
	got, err := e.Bindings(c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Bindings = %v, want ana and cyn", got)
	}
	seen := map[string]bool{}
	for _, g := range got {
		seen[g.Terms[0].Name] = true
	}
	if !seen["ana"] || !seen["cyn"] {
		t.Fatalf("Bindings = %v", got)
	}
	// Limit applies.
	one, err := e.Bindings(c, 1, rand.New(rand.NewSource(1)))
	if err != nil || len(one) != 1 {
		t.Fatalf("limited Bindings = %v, %v", one, err)
	}
}

// An engine answers at the snapshot New pinned: a commit after New
// derives a new head, which Bindings must not see.
func TestBindingsAtPinnedSnapshot(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("directed", "person", "movie")
	s.MustAdd("genre", "movie", "g")
	d := db.New(s)
	d.MustInsert("directed", "ana", "m1")
	d.MustInsert("genre", "m1", "drama")
	e := New(d, Options{})
	if _, err := d.Commit(map[string][]db.Tuple{"directed": {{"dan", "m1"}}}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := e.Bindings(mustClause(t, "dramaDirector(P) :- directed(P,M), genre(M,drama)."), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Terms[0].Name != "ana" {
		t.Fatalf("Bindings = %v, want only ana (dan was committed after New)", got)
	}
}

func TestBindingsErrors(t *testing.T) {
	e := New(uwDB(t), Options{})
	if _, err := e.Bindings(mustClause(t, "t(X) :- nosuch(X)."), 10, nil); err == nil {
		t.Error("no anchor relation must error")
	}
	if _, err := e.Bindings(mustClause(t, "advisedBy(X,Y) :- student(X), professor(Y)."), 10, nil); err == nil {
		t.Error("non-unary head must error")
	}
}

// Property: query-execution coverage must agree with brute-force
// enumeration of all substitutions on small random databases.
func TestPropAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	consts := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 150; trial++ {
		s := db.NewSchema()
		s.MustAdd("p", "x", "y")
		s.MustAdd("q", "x")
		d := db.New(s)
		for i, n := 0, 2+rng.Intn(8); i < n; i++ {
			d.MustInsert("p", consts[rng.Intn(4)], consts[rng.Intn(4)])
		}
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			d.MustInsert("q", consts[rng.Intn(4)])
		}
		// Random clause over p/q with up to 3 literals.
		vars := []string{"X", "Y", "Z"}
		mk := func() logic.Term {
			if rng.Intn(4) == 0 {
				return logic.Const(consts[rng.Intn(4)])
			}
			return logic.Var(vars[rng.Intn(3)])
		}
		c := &logic.Clause{Head: logic.NewLiteral("t", logic.Var("X"))}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			if rng.Intn(2) == 0 {
				c.Body = append(c.Body, logic.NewLiteral("p", mk(), mk()))
			} else {
				c.Body = append(c.Body, logic.NewLiteral("q", mk()))
			}
		}
		example := ex("t", consts[rng.Intn(4)])

		eng := New(d, Options{})
		got, err := eng.Covers(c, example)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(d, c, example, consts)
		if got != want {
			t.Fatalf("mismatch for %v on %v: engine=%v brute=%v", c, example, got, want)
		}
	}
}

// bruteForce enumerates every substitution over consts.
func bruteForce(d *db.Database, c *logic.Clause, example logic.Literal, consts []string) bool {
	vars := c.Variables()
	hasTuple := func(rel string, vals []string) bool {
		r := d.Relation(rel)
		if r == nil {
			return false
		}
		for _, t := range r.Snapshot() {
			if t.Equal(db.Tuple(vals)) {
				return true
			}
		}
		return false
	}
	var try func(i int, sub logic.Substitution) bool
	try = func(i int, sub logic.Substitution) bool {
		if i == len(vars) {
			if c.Head.Apply(sub).String() != example.String() {
				return false
			}
			for _, l := range c.Body {
				g := l.Apply(sub)
				vals := make([]string, len(g.Terms))
				for j, t := range g.Terms {
					vals[j] = t.Name
				}
				if !hasTuple(g.Predicate, vals) {
					return false
				}
			}
			return true
		}
		for _, v := range consts {
			sub[vars[i]] = logic.Const(v)
			if try(i+1, sub) {
				return true
			}
		}
		delete(sub, vars[i])
		return false
	}
	return try(0, logic.Substitution{})
}

// One engine answers from several goroutines at once (run with -race):
// every call binds its head into a view of the shared compiled snapshot.
func TestCoversConcurrent(t *testing.T) {
	e := New(uwDB(t), Options{})
	c := mustClause(t, "advisedBy(X,Y) :- student(X), professor(Y), publication(Z,X), publication(Z,Y).")
	want := map[string]bool{"juan": true, "john": false, "ghost": false}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stud, w := range want {
				if ok, err := e.Covers(c, ex("advisedBy", stud, "sarita")); err != nil || ok != w {
					t.Errorf("Covers(%s) = %v, %v; want %v", stud, ok, err, w)
				}
			}
		}()
	}
	wg.Wait()
}
