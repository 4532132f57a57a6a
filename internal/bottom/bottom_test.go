package bottom

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bias"
	"repro/internal/db"
	"repro/internal/logic"
)

// table4 builds the exact UW fragment of the paper's Table 4.
func table4(t testing.TB) *db.Database {
	t.Helper()
	s := db.NewSchema()
	s.MustAdd("student", "stud")
	s.MustAdd("professor", "prof")
	s.MustAdd("inPhase", "stud", "phase")
	s.MustAdd("hasPosition", "prof", "position")
	s.MustAdd("publication", "title", "person")
	d := db.New(s)
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

// table3Bias is the paper's Table 3 language bias (plus the target's
// predicate definition, which Table 3 implies).
func table3Bias(t testing.TB, schema *db.Schema) *bias.Compiled {
	t.Helper()
	b := bias.MustParse(`
		advisedBy(T1,T3)
		student(T1)
		inPhase(T1,T2)
		professor(T3)
		hasPosition(T3,T4)
		publication(T5,T1)
		publication(T5,T3)
		student(+)
		inPhase(+,-)
		inPhase(+,#)
		professor(+)
		hasPosition(+,-)
		publication(-,+)
	`)
	c, err := b.Compile(schema, "advisedBy", 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func bodyStrings(c *logic.Clause) []string {
	out := make([]string, len(c.Body))
	for i, l := range c.Body {
		out[i] = l.String()
	}
	sort.Strings(out)
	return out
}

// TestExample25 reproduces the paper's Example 2.5 exactly: the BC of
// advisedBy(juan,sarita) at depth 1 under the Table 3 bias.
func TestExample25(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	b := NewBuilder(d, c, Options{Depth: 1, SampleSize: 20})
	bc, err := b.Construct(logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita")))
	if err != nil {
		t.Fatal(err)
	}
	if bc.Head.String() != "advisedBy(V0,V1)" {
		t.Fatalf("head = %s", bc.Head)
	}
	got := bodyStrings(bc)
	want := []string{
		"hasPosition(V1,V4)",
		"inPhase(V0,V2)",
		"inPhase(V0,post_quals)",
		"professor(V1)",
		"publication(V3,V0)",
		"publication(V3,V1)",
		"student(V0)",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("BC body:\n got %v\nwant %v", got, want)
	}
}

func TestGroundBC(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	b := NewBuilder(d, c, Options{Depth: 1, SampleSize: 20})
	bc, err := b.ConstructGround(logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita")))
	if err != nil {
		t.Fatal(err)
	}
	if !bc.IsGround() {
		t.Fatalf("ground BC has variables: %s", bc)
	}
	if bc.Head.String() != "advisedBy(juan,sarita)" {
		t.Fatalf("head = %s", bc.Head)
	}
	got := bodyStrings(bc)
	want := []string{
		"hasPosition(sarita,assistant_prof)",
		"inPhase(juan,post_quals)",
		"professor(sarita)",
		"publication(p1,juan)",
		"publication(p1,sarita)",
		"student(juan)",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("ground BC body:\n got %v\nwant %v", got, want)
	}
}

// TestDepth2TAship checks the multi-hop chain the paper's introduction
// motivates: ta and taughtBy join through the course constant, reachable
// only at depth 2.
func TestDepth2TAship(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("student", "stud")
	s.MustAdd("professor", "prof")
	s.MustAdd("ta", "course", "stud", "term")
	s.MustAdd("taughtBy", "course", "prof", "term")
	d := db.New(s)
	d.MustInsert("student", "juan")
	d.MustInsert("professor", "sarita")
	d.MustInsert("ta", "c1", "juan", "fall")
	d.MustInsert("taughtBy", "c1", "sarita", "fall")
	b := bias.MustParse(`
		advisedBy(T1,T3)
		student(T1)
		professor(T3)
		ta(T6,T1,T7)
		taughtBy(T6,T3,T7)
		student(+)
		professor(+)
		ta(-,+,-)
		taughtBy(+,-,-)
	`)
	c, err := b.Compile(d.Schema(), "advisedBy", 2)
	if err != nil {
		t.Fatal(err)
	}
	shallow := NewBuilder(d, c, Options{Depth: 1})
	bc1, err := shallow.Construct(logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita")))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range bc1.Body {
		if l.Predicate == "taughtBy" {
			t.Fatalf("taughtBy unreachable at depth 1: %s", bc1)
		}
	}
	deep := NewBuilder(d, c, Options{Depth: 2})
	bc2, err := deep.Construct(logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita")))
	if err != nil {
		t.Fatal(err)
	}
	var taVar, tbVar string
	for _, l := range bc2.Body {
		if l.Predicate == "ta" {
			taVar = l.Terms[0].Name
		}
		if l.Predicate == "taughtBy" {
			tbVar = l.Terms[0].Name
		}
	}
	if taVar == "" || tbVar == "" {
		t.Fatalf("depth 2 must reach ta and taughtBy: %s", bc2)
	}
	if taVar != tbVar {
		t.Fatalf("ta and taughtBy must share the course variable: %s vs %s", taVar, tbVar)
	}
}

func TestConstructValidatesExample(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	b := NewBuilder(d, c, Options{})
	if _, err := b.Construct(logic.NewLiteral("wrongTarget", logic.Const("x"))); err == nil {
		t.Error("non-target example must fail")
	}
	if _, err := b.Construct(logic.NewLiteral("advisedBy", logic.Var("X"), logic.Const("y"))); err == nil {
		t.Error("non-ground example must fail")
	}
}

func TestSampleSizeCapsLiterals(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("person", "name")
	s.MustAdd("likes", "name", "thing")
	d := db.New(s)
	d.MustInsert("person", "ann")
	for i := 0; i < 100; i++ {
		d.MustInsert("likes", "ann", fmt.Sprintf("thing%03d", i))
	}
	b := bias.MustParse(`
		fan(T1)
		person(T1)
		likes(T1,T2)
		person(+)
		likes(+,-)
	`)
	c, err := b.Compile(d.Schema(), "fan", 1)
	if err != nil {
		t.Fatal(err)
	}
	builder := NewBuilder(d, c, Options{Depth: 1, SampleSize: 5})
	bc, err := builder.Construct(logic.NewLiteral("fan", logic.Const("ann")))
	if err != nil {
		t.Fatal(err)
	}
	likes := 0
	for _, l := range bc.Body {
		if l.Predicate == "likes" {
			likes++
		}
	}
	if likes != 5 {
		t.Fatalf("likes literals = %d, want sample size 5", likes)
	}
}

func TestMaxLiteralsCap(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("person", "name")
	s.MustAdd("likes", "name", "thing")
	d := db.New(s)
	d.MustInsert("person", "ann")
	for i := 0; i < 100; i++ {
		d.MustInsert("likes", "ann", fmt.Sprintf("thing%03d", i))
	}
	b := bias.MustParse(`
		fan(T1)
		person(T1)
		likes(T1,T2)
		person(+)
		likes(+,-)
	`)
	c, err := b.Compile(d.Schema(), "fan", 1)
	if err != nil {
		t.Fatal(err)
	}
	builder := NewBuilder(d, c, Options{Depth: 1, SampleSize: 100, MaxLiterals: 7})
	bc, err := builder.Construct(logic.NewLiteral("fan", logic.Const("ann")))
	if err != nil {
		t.Fatal(err)
	}
	if len(bc.Body) > 7 {
		t.Fatalf("body = %d literals, cap 7", len(bc.Body))
	}
}

func TestAllStrategiesProduceHeadConnectedBCs(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	ex := logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita"))
	for _, strat := range []Strategy{Naive, Random, Stratified} {
		b := NewBuilder(d, c, Options{Strategy: strat, Depth: 2, SampleSize: 20, Seed: 7})
		bc, err := b.Construct(ex)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(bc.Body) == 0 {
			t.Fatalf("%v: empty BC body", strat)
		}
		pruned := bc.PruneNotHeadConnected()
		if len(pruned.Body) == 0 {
			t.Fatalf("%v: no head-connected literals in %s", strat, bc)
		}
		// Every strategy must find the co-authorship pattern in this tiny
		// fully connected database.
		foundPub := false
		for _, l := range bc.Body {
			if l.Predicate == "publication" {
				foundPub = true
			}
		}
		if !foundPub {
			t.Fatalf("%v: publication literal missing from %s", strat, bc)
		}
	}
}

func TestRandomSamplingFindsCoauthorship(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	b := NewBuilder(d, c, Options{Strategy: Random, Depth: 2, SampleSize: 20, Seed: 3})
	bc, err := b.Construct(logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita")))
	if err != nil {
		t.Fatal(err)
	}
	// publication(Z,x) and publication(Z,y) must share the title variable.
	titleVars := map[string][]string{}
	for _, l := range bc.Body {
		if l.Predicate == "publication" {
			titleVars[l.Terms[0].Name] = append(titleVars[l.Terms[0].Name], l.Terms[1].Name)
		}
	}
	shared := false
	for _, persons := range titleVars {
		if len(persons) >= 2 {
			shared = true
		}
	}
	if !shared {
		t.Fatalf("random sampling must capture the co-author self-join: %s", bc)
	}
}

// TestOlkenUniformity verifies the acceptance-sampling property of
// §4.2.3: tuples of the semi-join come out uniformly even when value
// frequencies are skewed. Value "hot" has 9 tuples and "cold" has 1; a
// value-uniform sampler would return cold's tuple ~50% of the time, the
// Olken sampler ~10%.
func TestOlkenUniformity(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("r", "a", "b")
	d := db.New(s)
	for i := 0; i < 9; i++ {
		d.MustInsert("r", "hot", fmt.Sprintf("h%d", i))
	}
	d.MustInsert("r", "cold", "c0")
	rel := d.Relation("r")

	st := &state{b: &Builder{db: d, opts: Options{SampleSize: 1}.normalized()}}
	st.own.Seed(99)
	st.src = &st.own
	coldHits, total := 0, 4000
	for i := 0; i < total; i++ {
		sample := st.olkenSample(rel, 0, []string{"hot", "cold"}, nil)
		if len(sample) == 0 {
			continue
		}
		if sample[0][0] == "cold" {
			coldHits++
		}
	}
	frac := float64(coldHits) / float64(total)
	if frac < 0.04 || frac > 0.20 {
		t.Fatalf("cold tuple sampled %.3f of draws; want ≈0.10 (tuple-uniform), not ≈0.50 (value-uniform)", frac)
	}
}

func TestStratifiedCoversRareStratum(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("proc", "pid")
	s.MustAdd("event", "pid", "kind")
	d := db.New(s)
	d.MustInsert("proc", "p1")
	for i := 0; i < 500; i++ {
		d.MustInsert("event", "p1", "common")
	}
	d.MustInsert("event", "p1", "rare")
	b := bias.MustParse(`
		malicious(T1)
		proc(T1)
		event(T1,T2)
		proc(+)
		event(+,-)
		event(+,#)
	`)
	c, err := b.Compile(d.Schema(), "malicious", 1)
	if err != nil {
		t.Fatal(err)
	}
	ex := logic.NewLiteral("malicious", logic.Const("p1"))

	strat := NewBuilder(d, c, Options{Strategy: Stratified, Depth: 1, SampleSize: 3, Seed: 5})
	bc, err := strat.Construct(ex)
	if err != nil {
		t.Fatal(err)
	}
	foundRare := false
	for _, l := range bc.Body {
		if l.Predicate == "event" && l.Terms[1].IsConst() && l.Terms[1].Name == "rare" {
			foundRare = true
		}
	}
	if !foundRare {
		t.Fatalf("stratified sampling must cover the rare stratum: %s", bc)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	ex := logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita"))
	for _, strat := range []Strategy{Naive, Random, Stratified} {
		a := NewBuilder(d, c, Options{Strategy: strat, Depth: 2, Seed: 42})
		b := NewBuilder(d, c, Options{Strategy: strat, Depth: 2, Seed: 42})
		bc1, err := a.Construct(ex)
		if err != nil {
			t.Fatal(err)
		}
		bc2, err := b.Construct(ex)
		if err != nil {
			t.Fatal(err)
		}
		if bc1.String() != bc2.String() {
			t.Fatalf("%v: nondeterministic for fixed seed:\n%s\n%s", strat, bc1, bc2)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if Naive.String() != "Naive" || Random.String() != "Random" || Stratified.String() != "Stratified" {
		t.Fatal("strategy names")
	}
	if !strings.Contains(Strategy(9).String(), "9") {
		t.Fatal("unknown strategy formatting")
	}
}
