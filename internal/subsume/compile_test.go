package subsume

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
)

// raggedGround draws a ground clause whose predicates do not keep to one
// arity — the extent's is its first literal's; later literals may run
// longer and, when short is set, shorter — and whose constants include
// the empty string.
func raggedGround(r *rand.Rand, short bool) *logic.Clause {
	consts := []string{"a", "b", "c", "d", ""}
	preds := []string{"p", "q", "s"}
	first := map[string]int{}
	g := &logic.Clause{Head: logic.NewLiteral("h", logic.Const(consts[r.Intn(5)]))}
	for i, n := 0, 1+r.Intn(14); i < n; i++ {
		pred := preds[r.Intn(3)]
		arity := 1 + r.Intn(3)
		if first[pred] == 0 {
			first[pred] = arity
		}
		if !short {
			arity = max(arity, first[pred])
		}
		terms := make([]logic.Term, arity)
		for p := range terms {
			terms[p] = logic.Const(consts[r.Intn(5)])
		}
		g.Body = append(g.Body, logic.NewLiteral(pred, terms...))
	}
	return g
}

// TestCompiledGroundLayout holds the flat layout to a reference read
// straight off the clause: extents in first-occurrence order with the
// first literal's arity, rows in order (cut or padded to the arity),
// every posting list the ascending ids of the rows holding the value
// there, local ids a first-occurrence numbering with 0 for the empty
// string, and an empty list for a value the clause does not hold.
func TestCompiledGroundLayout(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		g := raggedGround(r, true)
		in := logic.NewInterner()
		in.InternAll("noise1", "noise2") // local ids must not lean on the table's
		cg := CompileGround(in, g)

		value := make([]string, cg.nLocal) // local id → string
		for i, gid := range cg.globals {
			if i > 0 && cg.globals[i-1] >= gid {
				t.Fatalf("globals not strictly ascending: %v", cg.globals)
			}
			value[cg.locals[i]] = in.Value(gid)
			if cg.localOf(gid) != cg.locals[i] {
				t.Fatalf("localOf(%d) = %d, table says %d", gid, cg.localOf(gid), cg.locals[i])
			}
		}
		if value[0] != "" {
			t.Fatalf("local 0 must be the empty string, is %q", value[0])
		}
		// First occurrence, head first, after "" — a head value only when
		// the body holds it: a head-only value is local nLocal, id -1, and
		// stays out of the table.
		var order []string
		seen := map[string]bool{"": true}
		inBody := map[string]bool{}
		for _, l := range g.Body {
			for _, tm := range l.Terms {
				inBody[tm.Name] = true
			}
		}
		note := func(ts []logic.Term) {
			for _, tm := range ts {
				if !seen[tm.Name] && inBody[tm.Name] {
					seen[tm.Name] = true
					order = append(order, tm.Name)
				}
			}
		}
		note(g.Head.Terms)
		for _, l := range g.Body {
			note(l.Terms)
		}
		if !slices.Equal(value[1:], order) {
			t.Fatalf("local ids %q are not first-occurrence order %q", value[1:], order)
		}
		for i, tm := range g.Head.Terms {
			if tm.Name == "" || inBody[tm.Name] {
				continue
			}
			if _, interned := in.Lookup(tm.Name); interned || cg.headVals[i] != cg.nLocal || cg.headIDs[i] != -1 {
				t.Fatalf("head-only value %q: local %d, id %d, interned %v", tm.Name, cg.headVals[i], cg.headIDs[i], interned)
			}
		}
		if cg.localOf(-1) != cg.nLocal || cg.localOf(in.Intern("noise1")) != cg.nLocal {
			t.Fatal("an id the clause does not hold must map to nLocal")
		}

		var preds []string
		byPred := map[string][]logic.Literal{}
		for _, l := range g.Body {
			if byPred[l.Predicate] == nil {
				preds = append(preds, l.Predicate)
			}
			byPred[l.Predicate] = append(byPred[l.Predicate], l)
		}
		if len(cg.exts) != len(preds) || cg.BodyLen() != len(g.Body) {
			t.Fatalf("%d extents for predicates %v", len(cg.exts), preds)
		}
		for xi, pred := range preds {
			pid, _ := in.Lookup(pred)
			ext := cg.extent(pid)
			lits := byPred[pred]
			if ext != &cg.exts[xi] || ext.n != len(lits) || ext.arity != len(lits[0].Terms) {
				t.Fatalf("extent of %s: %+v", pred, ext)
			}
			for gi, l := range lits {
				for p, v := range ext.row(int32(gi)) {
					if p >= len(l.Terms) {
						if v != noValue {
							t.Fatalf("%s row %d slot %d: short literal not padded", pred, gi, p)
						}
					} else if value[v] != l.Terms[p].Name {
						t.Fatalf("%s row %d slot %d: %q, clause says %q", pred, gi, p, value[v], l.Terms[p].Name)
					}
				}
			}
			for p := 0; p < ext.arity; p++ {
				for v := int32(0); v <= cg.nLocal; v++ {
					var want []int32
					for gi, l := range lits {
						if v < cg.nLocal && p < len(l.Terms) && l.Terms[p].Name == value[v] {
							want = append(want, int32(gi))
						}
					}
					if got := ext.posting(p, v); !slices.Equal(got, want) || ext.postingLen(p, v) != len(want) {
						t.Fatalf("%s posting(%d, %d) = %v, want %v (ground %v)", pred, p, v, got, want, g)
					}
				}
			}
		}
		if other, _ := in.Lookup("noise2"); cg.extent(other) != nil {
			t.Fatal("extent for a predicate the clause does not hold")
		}
	}
}

// TestCheckCompiledEquivalenceOddArity: the legacy matcher indexes an
// extent by its first literal's arity and reads longer literals only
// that far; the flat rows must take bit-identical decisions there. A
// literal shorter than its extent's arity is one the legacy matcher
// cannot read (it indexes past the literal's end), so the contract is
// semantic: such a row matches nothing, i.e. the verdict is the one on
// the ground clause without it.
func TestCheckCompiledEquivalenceOddArity(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	vars := []string{"X", "Y", "Z", "W"}
	consts := []string{"a", "b", "c", "d", ""}
	clause := func(g *logic.Clause) *logic.Clause {
		c := &logic.Clause{Head: logic.NewLiteral("h", logic.Var("X"))}
		arity := map[string]int{}
		for _, l := range g.Body {
			if _, ok := arity[l.Predicate]; !ok {
				arity[l.Predicate] = len(l.Terms)
			}
		}
		for i, n := 0, r.Intn(5); i < n; i++ {
			pred := []string{"p", "q", "s"}[r.Intn(3)]
			k, ok := arity[pred]
			if !ok || r.Intn(8) == 0 {
				k = 1 + r.Intn(3) // sometimes the wrong arity: matches nothing
			}
			terms := make([]logic.Term, k)
			for p := range terms {
				if r.Intn(5) == 0 {
					terms[p] = logic.Const(consts[r.Intn(5)])
				} else {
					terms[p] = logic.Var(vars[r.Intn(4)])
				}
			}
			c.Body = append(c.Body, logic.NewLiteral(pred, terms...))
		}
		return c
	}
	for trial := 0; trial < 600; trial++ {
		g := raggedGround(r, false)
		c := clause(g)
		opts := Options{}
		if trial%2 == 1 {
			opts = Options{MaxNodes: 1 + r.Intn(6)}
		}
		requireEquiv(t, "longer-rows", c, g, opts)
	}
	for trial := 0; trial < 600; trial++ {
		g := raggedGround(r, true)
		c := clause(g)
		trimmed := &logic.Clause{Head: g.Head}
		arity := map[string]int{}
		for _, l := range g.Body {
			if _, ok := arity[l.Predicate]; !ok {
				arity[l.Predicate] = len(l.Terms)
			}
			if len(l.Terms) >= arity[l.Predicate] {
				trimmed.Body = append(trimmed.Body, l)
			}
		}
		// Dropping its short rows may leave the legacy side a different
		// first literal — never a different arity, which is all it reads.
		want := legacyCheck(context.Background(), c, trimmed, exhaustive)
		got := CheckCompiled(c, CompileGround(nil, g), exhaustive)
		if got.Subsumes != want.Subsumes || !got.Complete {
			t.Fatalf("short rows: got %+v, without them legacy says %+v (clause %v vs %v)", got, want, c, g)
		}
	}
}

// TestWithHead binds heads onto one compiled ground without copying its
// arena, and keeps values the ground does not hold apart by name.
func TestWithHead(t *testing.T) {
	db := CompileGround(nil, mustClause(t, "db(all) :- student(juan), professor(sarita), publication(p1,juan), publication(p1,sarita)."))
	cases := []struct {
		clause, head string
		want         bool
	}{
		{"advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).", "advisedBy(juan,sarita)", true},
		{"advisedBy(X,Y) :- student(X), professor(Y).", "advisedBy(sarita,juan)", false},
		{"advisedBy(X,Y) :- professor(Y).", "advisedBy(ghost,sarita)", true},
		{"advisedBy(X,Y) :- student(Y).", "advisedBy(juan,ghost)", false},
		{"advisedBy(X,X).", "advisedBy(ghost1,ghost2)", false},
		{"advisedBy(X,X).", "advisedBy(ghost1,ghost1)", true},
		{"advisedBy(X,ghost1).", "advisedBy(juan,ghost2)", false},
		{"advisedBy(X,ghost1).", "advisedBy(juan,ghost1)", true},
	}
	for _, tc := range cases {
		cg := db.WithHead(mustClause(t, tc.head+".").Head)
		if &cg.arena[0] != &db.arena[0] || len(cg.exts) != len(db.exts) {
			t.Fatal("WithHead copied the compiled body")
		}
		if got := CheckCompiled(mustClause(t, tc.clause), cg, Options{}); got.Subsumes != tc.want || !got.Complete {
			t.Errorf("%s against %s: %+v, want %v", tc.clause, tc.head, got, tc.want)
		}
	}
}

// TestCompileGroundHeadOnlyValues: a head value the body does not hold
// stays out of the intern table, and head constants and repeated head
// variables still compare it by name — through a clause compiled on the
// same table (CheckClauseCtx) and through the one-shot path alike.
func TestCompileGroundHeadOnlyValues(t *testing.T) {
	body := " :- student(juan), professor(sarita), publication(p1,juan), publication(p1,sarita)."
	cases := []struct {
		clause, head string
		want         bool
	}{
		{"advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).", "advisedBy(juan,sarita)", true},
		{"advisedBy(X,Y) :- professor(Y).", "advisedBy(ghost,sarita)", true},
		{"advisedBy(X,Y) :- student(Y).", "advisedBy(juan,ghost)", false},
		{"advisedBy(X,X).", "advisedBy(ghost1,ghost2)", false},
		{"advisedBy(X,X).", "advisedBy(ghost1,ghost1)", true},
		{"advisedBy(X,X).", "advisedBy(juan,ghost1)", false},
		{"advisedBy(X,ghost1).", "advisedBy(juan,ghost2)", false},
		{"advisedBy(X,ghost1).", "advisedBy(juan,ghost1)", true},
		{"advisedBy(juan,Y).", "advisedBy(juan,ghost1)", true},
	}
	in := logic.NewInterner()
	CompileGround(in, mustClause(t, "advisedBy(juan,sarita)"+body))
	size := in.Len()
	for _, tc := range cases {
		c := mustClause(t, tc.clause)
		cc := CompileClause(in, c)
		cg := CompileGround(in, mustClause(t, tc.head+body))
		if in.Len() != size {
			t.Fatalf("compiling %s grew the table to %v", tc.head, in.Symbols())
		}
		if got := CheckClauseCtx(context.Background(), cc, cg, Options{}); got.Subsumes != tc.want || !got.Complete {
			t.Errorf("%s against %s: %+v, want %v", tc.clause, tc.head, got, tc.want)
		}
		if got := CheckCompiled(c, cg, Options{}); got.Subsumes != tc.want {
			t.Errorf("one-shot %s against %s: %+v, want %v", tc.clause, tc.head, got, tc.want)
		}
		if fw := ForwardPass(context.Background(), c, cg, Options{}); fw.HeadMatches != tc.want && len(c.Body) == 0 {
			t.Errorf("ForwardPass %s against %s: head matches %v, want %v", tc.clause, tc.head, fw.HeadMatches, tc.want)
		}
	}
}
