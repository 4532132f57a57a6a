package logic

import (
	"fmt"
	"math/rand"
	"testing"
)

// standardize is the renaming the canonical key is defined by: a copy of
// the clause with its variables renamed V0, V1, ... in first-occurrence
// order. Key must equal standardize(c).String() byte for byte — the store
// keys and the beam's tie-break order are those bytes.
func standardize(c *Clause) *Clause {
	ren := make(Substitution)
	rename := func(l Literal) Literal {
		out := Literal{Predicate: l.Predicate, Terms: make([]Term, len(l.Terms))}
		for i, t := range l.Terms {
			if !t.IsVar() {
				out.Terms[i] = t
				continue
			}
			img, ok := ren[t.Name]
			if !ok {
				img = Var(fmt.Sprintf("V%d", len(ren)))
				ren[t.Name] = img
			}
			out.Terms[i] = img
		}
		return out
	}
	out := &Clause{Head: rename(c.Head), Body: make([]Literal, len(c.Body))}
	for i, l := range c.Body {
		out.Body[i] = rename(l)
	}
	return out
}

// OracleKey exposes the reference key to the external benchmark.
func OracleKey(c *Clause) string { return standardize(c).String() }

func TestClauseKeyMatchesStandardize(t *testing.T) {
	cases := []*Clause{
		MustParseClause("h(X,Y) :- p(Y,Z), q(Z,X)."),
		MustParseClause("h(X) :- p(X,X), p(X,Y), q(Y,Y,X)."),       // repeated variables
		MustParseClause(`h(X) :- p(X,"a b"), q("",X).`),            // quoted constants
		MustParseClause(`h(X) :- p(X,"say \"hi\""), q(X,"a\\b").`), // constants holding " and \
		MustParseClause(`h(X) :- p(X,"V0"), q(V0,X).`),             // a constant spelled like a variable
		MustParseClause("h(X,Y)."),                                 // empty body
		MustParseClause("h(a,b) :- p(a,c)."),                       // ground
		MustParseClause("h(V1,V0) :- p(V0,V2)."),                   // variables already named V<n>
		{Head: NewLiteral("h")},                                    // zero-arity head, no body
		{Head: NewLiteral("h", Var("X")), Body: []Literal{NewLiteral("p", Var("X")), NewLiteral("true"), NewLiteral("q", Var("Y"), Var("X"))}},
		{Head: NewLiteral("h", Var("")), Body: []Literal{NewLiteral("p", Var(""), Const("V0"), Const("x y"))}},
	}
	for _, c := range cases {
		if got, want := c.Key(), standardize(c).String(); got != want {
			t.Errorf("Key(%s) = %q, want %q", c, got, want)
		}
	}
	// Variables past V9: the number is written in full.
	c := &Clause{Head: NewLiteral("h", Var("A"))}
	for i := 0; i < 120; i++ {
		c.Body = append(c.Body, NewLiteral("p", Var(fmt.Sprint("A", i)), Var(fmt.Sprint("A", i+1))))
	}
	if got, want := c.Key(), standardize(c).String(); got != want {
		t.Fatalf("Key of a 122-variable clause differs from the oracle:\n got %q\nwant %q", got, want)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		c := randomClause(r)
		if got, want := c.Key(), standardize(c).String(); got != want {
			t.Fatalf("Key(%s) = %q, want %q", c, got, want)
		}
	}
}

// FuzzClauseKey holds Key to the renaming oracle on every clause the
// parser accepts; run with
// `go test -fuzz FuzzClauseKey ./internal/logic`.
func FuzzClauseKey(f *testing.F) {
	for _, s := range []string{
		"h(X,Y) :- p(Y,Z), q(Z,X).",
		"h(X) :- p(X,X), q(X,Y,Y).",
		`h(X) :- p(X,"a \"b\" \\ c"), q("V0",V0).`,
		"h(X) :- r(X,_a,_a), p(X,x,\"x\").",
		"h(V3,V1) :- p(V1,V0).",
		"h(a).",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ParseClause(in)
		if err != nil {
			return
		}
		if got, want := c.Key(), standardize(c).String(); got != want {
			t.Fatalf("Key(%q) = %q, want %q", in, got, want)
		}
	})
}

// TestClauseKeyAllocs: a steady-state Key makes one allocation, the
// string it returns; its buffer and renaming are pooled. So do
// Clause.String and Literal.String.
func TestClauseKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds pooled scratch under the race detector")
	}
	c := MustParseClause(`h(X,Y) :- p(X,Z), q(Z,"a b"), r(Z,W,Y), s(W,W).`)
	c.Key()
	if n := testing.AllocsPerRun(200, func() { _ = c.Key() }); n > 1 {
		t.Fatalf("Key allocates %.1f times per call, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = c.String() }); n > 1 {
		t.Fatalf("String allocates %.1f times per call, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = c.Body[1].String() }); n > 1 {
		t.Fatalf("Literal.String allocates %.1f times per call, want 1", n)
	}
}
