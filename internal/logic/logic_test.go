package logic

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	v := Var("X")
	if !v.IsVar() || v.IsConst() || v.Name != "X" {
		t.Fatalf("Var: got %+v", v)
	}
	c := Const("juan")
	if !c.IsConst() || c.IsVar() || c.Name != "juan" {
		t.Fatalf("Const: got %+v", c)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{Var("X"), "X"},
		{Const("juan"), "juan"},
		{Const("post_quals"), "post_quals"},
		{Const("p1"), "p1"},
		{Const("42"), "42"},
		{Const("has space"), `"has space"`},
		{Const("Upper"), `"Upper"`},
		{Const(""), `""`},
		{Const("a,b"), `"a,b"`},
	}
	for _, tc := range cases {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.term, got, tc.want)
		}
	}
}

func TestSubstitutionApply(t *testing.T) {
	s := Substitution{"X": Const("juan"), "Y": Var("Z")}
	if got := s.Apply(Var("X")); got != Const("juan") {
		t.Errorf("Apply(X) = %v", got)
	}
	if got := s.Apply(Var("Y")); got != Var("Z") {
		t.Errorf("Apply(Y) = %v", got)
	}
	if got := s.Apply(Var("W")); got != Var("W") {
		t.Errorf("Apply(unbound W) = %v", got)
	}
	if got := s.Apply(Const("X")); got != Const("X") {
		t.Errorf("Apply(constant X) = %v; constants must not be substituted", got)
	}
}

func TestSubstitutionBind(t *testing.T) {
	s := Substitution{}
	if !s.Bind("X", Const("a")) {
		t.Fatal("first Bind must succeed")
	}
	if !s.Bind("X", Const("a")) {
		t.Fatal("re-Bind to same term must succeed")
	}
	if s.Bind("X", Const("b")) {
		t.Fatal("Bind to conflicting term must fail")
	}
}

func TestSubstitutionClone(t *testing.T) {
	s := Substitution{"X": Const("a")}
	c := s.Clone()
	c["Y"] = Const("b")
	if _, ok := s["Y"]; ok {
		t.Fatal("Clone must be independent")
	}
}

func TestLiteralBasics(t *testing.T) {
	l := NewLiteral("publication", Var("Z"), Var("X"))
	if l.Arity() != 2 {
		t.Fatalf("Arity = %d", l.Arity())
	}
	if l.IsGround() {
		t.Fatal("literal with variables is not ground")
	}
	g := NewLiteral("student", Const("juan"))
	if !g.IsGround() {
		t.Fatal("constant-only literal is ground")
	}
	if l.String() != "publication(Z,X)" {
		t.Fatalf("String = %q", l.String())
	}
}

func TestLiteralApplyDoesNotMutate(t *testing.T) {
	l := NewLiteral("p", Var("X"), Var("Y"))
	got := l.Apply(Substitution{"X": Const("a")})
	if got.String() != "p(a,Y)" {
		t.Fatalf("Apply = %q", got.String())
	}
	if l.String() != "p(X,Y)" {
		t.Fatalf("original mutated: %q", l.String())
	}
}

func TestLiteralKeyDistinguishesVarsFromConsts(t *testing.T) {
	a := NewLiteral("p", Var("x"))
	b := NewLiteral("p", Const("x"))
	if a.Key() == b.Key() {
		t.Fatalf("Key must distinguish variable x from constant x: %q", a.Key())
	}
}

func TestLiteralSharesVariable(t *testing.T) {
	a := NewLiteral("p", Var("X"), Const("c"))
	b := NewLiteral("q", Var("Y"), Var("X"))
	c := NewLiteral("r", Var("Z"))
	if !a.SharesVariable(b) {
		t.Error("a and b share X")
	}
	if a.SharesVariable(c) {
		t.Error("a and c share nothing")
	}
	// Constant with same name as a variable must not count.
	d := NewLiteral("s", Const("X"))
	if a.SharesVariable(d) {
		t.Error("constant X must not match variable X")
	}
}

func TestClauseVariablesOrder(t *testing.T) {
	c := MustParseClause("h(X,Y) :- p(Y,Z), q(W).")
	got := c.Variables()
	want := []string{"X", "Y", "Z", "W"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Variables = %v, want %v", got, want)
	}
}

func TestClauseHeadConnected(t *testing.T) {
	// q(U,V) is disconnected; r(Z) connects through p's Z.
	c := MustParseClause("h(X) :- p(X,Z), r(Z), q(U,V).")
	got := c.HeadConnected()
	if len(got) != 2 || got[0].Predicate != "p" || got[1].Predicate != "r" {
		t.Fatalf("HeadConnected = %v", got)
	}
}

func TestClauseHeadConnectedTransitive(t *testing.T) {
	// Chain: head X -> a(X,Y) -> b(Y,Z) -> c(Z,W); all connected.
	c := MustParseClause("h(X) :- a(X,Y), b(Y,Z), c(Z,W).")
	if got := c.HeadConnected(); len(got) != 3 {
		t.Fatalf("all chained literals must be head-connected, got %v", got)
	}
	// Island: d(A,B), e(B) connected to each other but not to head.
	c2 := MustParseClause("h(X) :- a(X,Y), d(A,B), e(B).")
	if got := c2.HeadConnected(); len(got) != 1 || got[0].Predicate != "a" {
		t.Fatalf("island must be dropped, got %v", got)
	}
}

func TestClauseHeadConnectedDropsGroundLiterals(t *testing.T) {
	c := MustParseClause("h(X) :- a(X,Y), b(c1,c2).")
	got := c.HeadConnected()
	if len(got) != 1 || got[0].Predicate != "a" {
		t.Fatalf("ground literal must be dropped, got %v", got)
	}
}

func TestClauseStandardize(t *testing.T) {
	a := MustParseClause("h(X,Y) :- p(Y,Z).")
	b := MustParseClause("h(Q,R) :- p(R,S).")
	if a.Key() != b.Key() {
		t.Fatalf("alpha-equivalent clauses must share a key: %q vs %q", a.Key(), b.Key())
	}
	c := MustParseClause("h(X,Y) :- p(Z,Y).")
	if a.Key() == c.Key() {
		t.Fatalf("structurally different clauses must not share a key")
	}
}

func TestClauseCloneIndependence(t *testing.T) {
	a := MustParseClause("h(X) :- p(X,Y).")
	b := a.Clone()
	b.Body[0].Terms[0] = Const("mutated")
	if a.Body[0].Terms[0] != Var("X") {
		t.Fatal("Clone must deep-copy body terms")
	}
}

func TestClauseApply(t *testing.T) {
	c := MustParseClause("h(X) :- p(X,Y).")
	got := c.Apply(Substitution{"X": Const("a"), "Y": Const("b")})
	if got.String() != "h(a) :- p(a,b)." {
		t.Fatalf("Apply = %q", got.String())
	}
}

func TestClauseStringRoundTrip(t *testing.T) {
	inputs := []string{
		"advisedBy(X,Y) :- student(X), professor(Y), publication(Z,X), publication(Z,Y).",
		"fact(a,b).",
		"h(X) :- p(X,post_quals).",
	}
	for _, in := range inputs {
		c := MustParseClause(in)
		c2 := MustParseClause(c.String())
		if !c.Equal(c2) {
			t.Errorf("round trip failed for %q: %q", in, c.String())
		}
	}
}

func TestParseClauseArrowVariant(t *testing.T) {
	a := MustParseClause("h(X) <- p(X).")
	b := MustParseClause("h(X) :- p(X).")
	if !a.Equal(b) {
		t.Fatal("<- and :- must parse the same")
	}
}

func TestParseClauseQuotedConstant(t *testing.T) {
	c := MustParseClause(`h(X) :- p(X,"hello world").`)
	if got := c.Body[0].Terms[1]; got != Const("hello world") {
		t.Fatalf("quoted constant = %+v", got)
	}
}

func TestParseClauseErrors(t *testing.T) {
	bad := []string{
		"",
		"h(X",
		"h(X) :- ",
		"h(X) :- p(X) trailing",
		"h(X) :- p(,).",
		`h(X) :- p("unterminated).`,
	}
	for _, in := range bad {
		if _, err := ParseClause(in); err == nil {
			t.Errorf("ParseClause(%q) should fail", in)
		}
	}
}

func TestParseDefinition(t *testing.T) {
	d, err := ParseDefinition(`
		% comment
		h(X) :- p(X).
		h(X) :- q(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Target != "h" {
		t.Fatalf("definition = %+v", d)
	}
}

func TestParseDefinitionMixedHeadsRejected(t *testing.T) {
	if _, err := ParseDefinition("h(X) :- p(X).\ng(X) :- p(X)."); err == nil {
		t.Fatal("mixed head predicates must be rejected")
	}
}

// --- property-based tests -------------------------------------------------

// randomClause builds a random clause from a bounded alphabet.
func randomClause(r *rand.Rand) *Clause {
	preds := []string{"p", "q", "r", "s"}
	vars := []string{"X", "Y", "Z", "W", "U"}
	consts := []string{"a", "b", "c"}
	mkLit := func(pred string) Literal {
		n := 1 + r.Intn(3)
		terms := make([]Term, n)
		for i := range terms {
			if r.Intn(3) == 0 {
				terms[i] = Const(consts[r.Intn(len(consts))])
			} else {
				terms[i] = Var(vars[r.Intn(len(vars))])
			}
		}
		return NewLiteral(pred, terms...)
	}
	c := &Clause{Head: mkLit("h")}
	for i, n := 0, r.Intn(6); i < n; i++ {
		c.Body = append(c.Body, mkLit(preds[r.Intn(len(preds))]))
	}
	return c
}

func TestPropParsePrintRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		c := randomClause(r)
		back, err := ParseClause(c.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", c.String(), err)
		}
		if !c.Equal(back) {
			t.Fatalf("round trip: %q -> %q", c.String(), back.String())
		}
	}
}

func TestPropStandardizeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		c := randomClause(r)
		s1 := standardize(c)
		s2 := standardize(s1)
		if !s1.Equal(s2) {
			t.Fatalf("Standardize not idempotent: %q vs %q", s1, s2)
		}
	}
}

func TestPropStandardizeInvariantUnderRenaming(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		c := randomClause(r)
		// Rename every variable with a fresh prefix; canonical form must agree.
		ren := Substitution{}
		for _, v := range c.Variables() {
			ren[v] = Var("R_" + v)
		}
		if c.Key() != c.Apply(ren).Key() {
			t.Fatalf("standardize not renaming-invariant for %q", c)
		}
	}
}

func TestPropHeadConnectedSubsetAndIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		c := randomClause(r)
		pruned := c.PruneNotHeadConnected()
		if len(pruned.Body) > len(c.Body) {
			t.Fatal("pruning must not grow the body")
		}
		again := pruned.PruneNotHeadConnected()
		if !pruned.Equal(again) {
			t.Fatalf("pruning not idempotent: %q vs %q", pruned, again)
		}
		// Every kept literal must share a variable with head or another kept one.
		for i, l := range pruned.Body {
			ok := l.SharesVariable(pruned.Head)
			for j, o := range pruned.Body {
				if i != j && l.SharesVariable(o) {
					ok = true
				}
			}
			if !ok && len(pruned.Body) > 1 {
				t.Fatalf("kept literal %v not connected in %q", l, pruned)
			}
		}
	}
}

func TestQuickSubstitutionCloneEqual(t *testing.T) {
	f := func(keys []string) bool {
		s := Substitution{}
		for _, k := range keys {
			if k == "" {
				continue
			}
			s[k] = Const(strings.ToLower(k))
		}
		c := s.Clone()
		if len(c) != len(s) {
			return false
		}
		for k, v := range s {
			if c[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPlainConstantQuoting(t *testing.T) {
	// Any string must round-trip through Term printing + parsing as a term
	// inside a literal, as long as it is printable without control chars.
	f := func(v string) bool {
		for _, r := range v {
			if r < 0x20 || r == 0x7f {
				return true // skip control characters; not representable
			}
		}
		l := NewLiteral("p", Const(v))
		c := &Clause{Head: NewLiteral("h", Var("X")), Body: []Literal{l}}
		back, err := ParseClause(c.String())
		if err != nil {
			return false
		}
		return back.Body[0].Terms[0] == Const(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
