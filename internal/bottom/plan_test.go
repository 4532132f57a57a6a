package bottom

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bias"
	"repro/internal/db"
	"repro/internal/logic"
)

// wideBias compiles a synthetic bias over 71 types, so type ids run past
// one 64-bit word: relation rK joins TK to TK+1, and a second predicate
// definition gives each attribute a type far away in the numbering, so
// one attribute's type list spans both words.
func wideBias(t testing.TB) *bias.Compiled {
	t.Helper()
	const n = 70
	s := db.NewSchema()
	var lines []string
	lines = append(lines, "t(T0,T70)", "t(T64,T3)")
	for k := 0; k < n; k++ {
		rel := fmt.Sprintf("r%d", k)
		s.MustAdd(rel, "a", "b")
		lines = append(lines,
			fmt.Sprintf("%s(T%d,T%d)", rel, k, k+1),
			fmt.Sprintf("%s(T%d,T%d)", rel, k*7%(n+1), k*13%(n+1)),
			rel+"(+,-)", rel+"(-,+)", rel+"(+,#)")
	}
	c, err := bias.MustParse(strings.Join(lines, "\n")).Compile(s, "t", 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// planBiases returns the induced and manual biases of the five generated
// datasets and the wide synthetic bias, by name.
func planBiases(t *testing.T) map[string]*bias.Compiled {
	t.Helper()
	out := map[string]*bias.Compiled{"wide": wideBias(t)}
	for name, task := range loadInducedTasks(t) {
		out[name+"/induced"] = task.c
		m, err := task.ds.Manual.Compile(task.ds.DB.Schema(), task.ds.Target, task.ds.TargetArity())
		if err != nil {
			t.Fatal(err)
		}
		out[name+"/manual"] = m
	}
	return out
}

// TestPlanLookupTargetsMatchBias holds the plan's set-based lookup
// targets to bias.Compiled.PlusTargets: for the target and every
// attribute of every relation, and for every non-empty subset of the
// attribute's type list, the plan's targets are the bias's, element for
// element and in order. The traversals' precompiled edges and the
// attributes' type sets are checked against the full lists.
func TestPlanLookupTargetsMatchBias(t *testing.T) {
	for name, c := range planBiases(t) {
		p := compilePlan(c)
		if name == "wide" && p.words < 2 {
			t.Fatalf("wide: %d words, want the multiword path", p.words)
		}
		subsets := 0
		check := func(where string, list []string, set typeSet, edges []bias.RelAttr) {
			if !slices.Equal(set, p.set(list)) {
				t.Errorf("%s %s: type set %x, want %x", name, where, set, p.set(list))
			}
			if want := c.PlusTargets(list); !slices.Equal(edges, want) {
				t.Errorf("%s %s: edges %v, want %v", name, where, edges, want)
			}
			if len(list) > 16 {
				t.Fatalf("%s %s: %d types, too many subsets to enumerate", name, where, len(list))
			}
			for mask := 1; mask < 1<<len(list); mask++ {
				var sub []string
				for i, ty := range list {
					if mask&(1<<i) != 0 {
						sub = append(sub, ty)
					}
				}
				got, want := p.lookupTargets(nil, p.set(sub)), c.PlusTargets(sub)
				if !slices.Equal(got, want) {
					t.Errorf("%s %s %v: lookup targets %v, want %v", name, where, sub, got, want)
				}
				subsets++
			}
		}
		for i := range p.target {
			check(fmt.Sprintf("%s[%d]", c.Target(), i), c.TypesOf(c.Target(), i), p.target[i], p.targetPlus[i])
		}
		for _, rel := range c.Relations() {
			rp := p.rels[rel]
			for i := range rp.types {
				check(fmt.Sprintf("%s[%d]", rel, i), c.TypesOf(rel, i), rp.types[i], rp.plus[i])
			}
		}
		t.Logf("%s: %d types, %d lookups, %d subsets", name, len(p.ids), len(p.lookups), subsets)
	}
}

// TestFrontierNotesMatchTypeMaps replays random notes on the wide bias's
// plan against the per-constant type maps the frontier replaced: every
// note must queue exactly the types new to its constant, and a queued
// entry's lookup targets must be PlusTargets of those types.
func TestFrontierNotesMatchTypeMaps(t *testing.T) {
	c := wideBias(t)
	b := NewBuilder(db.New(db.NewSchema()), c, Options{})
	var lists [][]string
	for i := 0; c.TypesOf(c.Target(), i) != nil; i++ {
		lists = append(lists, c.TypesOf(c.Target(), i))
	}
	for _, rel := range c.Relations() {
		lists = append(lists, c.TypesOf(rel, 0), c.TypesOf(rel, 1))
	}
	rng := rand.New(rand.NewSource(1))
	st := b.plan.newState(b, true, nil)
	st.tracksFrontier = true
	defer b.plan.release(st)
	known := make(map[string]map[string]bool)
	for note := 0; note < 2000; note++ {
		constant := fmt.Sprintf("c%d", rng.Intn(20))
		list := lists[rng.Intn(len(lists))]
		var fresh []string
		if known[constant] == nil {
			known[constant] = make(map[string]bool)
		}
		for _, ty := range list {
			if !known[constant][ty] {
				known[constant][ty] = true
				fresh = append(fresh, ty)
			}
		}
		before := len(st.frontier)
		st.noteConstant(constant, b.plan.set(list))
		if len(fresh) == 0 {
			if len(st.frontier) != before {
				t.Fatalf("note %d (%s %v): queued an entry with no new types", note, constant, list)
			}
			continue
		}
		if len(st.frontier) != before+1 {
			t.Fatalf("note %d (%s %v): %d entries queued, want 1", note, constant, list, len(st.frontier)-before)
		}
		fe := st.frontier[before]
		set := typeSet(st.freshWords[fe.fresh : int(fe.fresh)+b.plan.words])
		if fe.constant != constant || !slices.Equal(set, b.plan.set(fresh)) {
			t.Fatalf("note %d (%s %v): queued %s %x, want %s %x", note, constant, list, fe.constant, set, constant, b.plan.set(fresh))
		}
		if got, want := b.plan.lookupTargets(nil, set), c.PlusTargets(fresh); !slices.Equal(got, want) {
			t.Fatalf("note %d: lookup targets %v, want %v", note, got, want)
		}
	}
}

// TestGroundBuildKeepsKeyCollidingTuples: two tuples whose Literal.Key
// strings coincide — "a,=b","c" and "a","b,=c" both render
// r(=a,=b,=c) — are different literals, and the ground BC keeps both.
func TestGroundBuildKeepsKeyCollidingTuples(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("r", "x", "y", "z")
	d := db.New(s)
	d.MustInsert("r", "e", "a,=b", "c")
	d.MustInsert("r", "e", "a", "b,=c")
	c, err := bias.MustParse("t(T)\nr(T,U,U)\nr(+,-,-)").Compile(s, "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewBuilder(d, c, Options{}).ConstructGround(logic.NewLiteral("t", logic.Const("e")))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Body) != 2 || g.Body[0].Key() != g.Body[1].Key() {
		t.Fatalf("ground BC %v: want both key-colliding tuples", g)
	}
}
