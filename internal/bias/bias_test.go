package bias

import (
	"strings"
	"testing"

	"repro/internal/db"
)

func TestModeSymbolString(t *testing.T) {
	if Input.String() != "+" || Output.String() != "-" || Constant.String() != "#" {
		t.Fatal("mode symbol rendering")
	}
	if ModeSymbol(9).String() != "?" {
		t.Fatal("unknown symbol must render '?'")
	}
}

func TestParseBias(t *testing.T) {
	b, err := Parse(`
		% predicate definitions
		student(T1)
		inPhase(T1,T2)
		publication(T5,T1)
		publication(T5,T3)
		% mode definitions
		student(+)
		inPhase(+,-)
		inPhase(+,#)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Predicates) != 4 || len(b.Modes) != 3 {
		t.Fatalf("parsed %d predicates, %d modes", len(b.Predicates), len(b.Modes))
	}
	if b.Size() != 7 {
		t.Fatalf("Size = %d", b.Size())
	}
	if b.Modes[2].Symbols[1] != Constant {
		t.Fatalf("inPhase(+,#) second symbol = %v", b.Modes[2].Symbols[1])
	}
}

func TestParseBiasErrors(t *testing.T) {
	for _, bad := range []string{"nonsense", "noparens T1", "empty()"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestBiasStringRoundTrip(t *testing.T) {
	src := MustParse("student(T1)\ninPhase(T1,T2)\nstudent(+)\ninPhase(+,#)")
	back := MustParse(src.String())
	if back.String() != src.String() {
		t.Fatalf("round trip:\n%s\nvs\n%s", src, back)
	}
}

func uwSchema() *db.Schema {
	s := db.NewSchema()
	s.MustAdd("student", "stud")
	s.MustAdd("professor", "prof")
	s.MustAdd("inPhase", "stud", "phase")
	s.MustAdd("hasPosition", "prof", "position")
	s.MustAdd("publication", "title", "person")
	return s
}

func uwBiasText() string {
	return `
		advisedBy(T1,T3)
		student(T1)
		professor(T3)
		inPhase(T1,T2)
		hasPosition(T3,T4)
		publication(T5,T1)
		publication(T5,T3)
		student(+)
		professor(+)
		inPhase(+,-)
		inPhase(+,#)
		hasPosition(+,-)
		publication(-,+)
		publication(+,-)
	`
}

func TestValidate(t *testing.T) {
	s := uwSchema()
	b := MustParse(uwBiasText())
	if err := b.Validate(s, "advisedBy", 2); err != nil {
		t.Fatal(err)
	}
	bad := MustParse("student(T1,T2)\nstudent(+)")
	if err := bad.Validate(s, "advisedBy", 2); err == nil {
		t.Error("arity mismatch must fail")
	}
	unknown := MustParse("nosuch(T1)\nnosuch(+)")
	if err := unknown.Validate(s, "advisedBy", 2); err == nil {
		t.Error("unknown relation must fail")
	}
	noPlus := MustParse("student(T1)\nadvisedBy(T1,T1)\nstudent(-)")
	if err := noPlus.Validate(s, "advisedBy", 2); err == nil {
		t.Error("mode without + must fail")
	}
}

func TestCompile(t *testing.T) {
	s := uwSchema()
	c, err := MustParse(uwBiasText()).Compile(s, "advisedBy", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TypesOf("publication", 1); len(got) != 2 || got[0] != "T1" || got[1] != "T3" {
		t.Fatalf("TypesOf(publication,1) = %v", got)
	}
	if got := c.TypesOf("advisedBy", 0); len(got) != 1 || got[0] != "T1" {
		t.Fatalf("TypesOf(advisedBy,0) = %v", got)
	}
	if !c.SharesType("student", 0, "inPhase", 0) {
		t.Error("student[0] and inPhase[0] share T1")
	}
	if c.SharesType("student", 0, "inPhase", 1) {
		t.Error("student[0] and inPhase[1] share nothing")
	}
	if !c.SharesType("publication", 1, "professor", 0) {
		t.Error("publication[1] carries T3")
	}
	// A T1 constant can be looked up wherever T1 has a + mode: student[0],
	// inPhase[0], publication[1].
	targets := c.PlusTargets([]string{"T1"})
	want := []RelAttr{{"inPhase", 0}, {"publication", 1}, {"student", 0}}
	if len(targets) != len(want) {
		t.Fatalf("PlusTargets(T1) = %v", targets)
	}
	for i := range want {
		if targets[i] != want[i] {
			t.Fatalf("PlusTargets(T1) = %v, want %v", targets, want)
		}
	}
	if !c.CanBeConstant("inPhase", 1) {
		t.Error("inPhase[1] has a # mode")
	}
	if c.CanBeConstant("inPhase", 0) {
		t.Error("inPhase[0] has no # mode")
	}
	rels := c.Relations()
	if len(rels) != 5 {
		t.Fatalf("Relations = %v", rels)
	}
}

// TestTypesOfAllocatesNothing pins that TypesOf hands out the slice
// Compile built: BC construction calls it once per noted constant.
func TestTypesOfAllocatesNothing(t *testing.T) {
	c, err := MustParse(uwBiasText()).Compile(uwSchema(), "advisedBy", 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { c.TypesOf("publication", 1) }); n != 0 {
		t.Errorf("TypesOf: %.0f allocations per call, want 0", n)
	}
	if got := c.TypesOf("nosuch", 0); got != nil {
		t.Errorf("TypesOf(nosuch,0) = %v, want nil", got)
	}
	if got := c.TypesOf("publication", 2); got != nil {
		t.Errorf("TypesOf(publication,2) = %v, want nil", got)
	}
}

func TestCompileRequiresTargetPredicate(t *testing.T) {
	s := uwSchema()
	b := MustParse("student(T1)\nstudent(+)")
	if _, err := b.Compile(s, "advisedBy", 2); err == nil {
		t.Fatal("missing target predicate definition must fail")
	}
}

func TestCompileRejectsModeWithoutPredicateDef(t *testing.T) {
	s := uwSchema()
	b := MustParse("advisedBy(T1,T1)\nstudent(+)")
	if _, err := b.Compile(s, "advisedBy", 2); err == nil {
		t.Fatal("mode for relation without predicate definition must fail")
	}
}

func TestGenerateModesUWInPhase(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("inPhase", "stud", "phase")
	d := db.New(s)
	// 10 students, 2 phases: phase is under an 18% relative threshold
	// (2/10 = 0.2 > 0.18, so use 12 students to get 2/12 = 0.167).
	for i := 0; i < 12; i++ {
		phase := "pre_quals"
		if i%2 == 0 {
			phase = "post_quals"
		}
		d.MustInsert("inPhase", "s"+string(rune('a'+i)), phase)
	}
	modes := generateModes(d.Relation("inPhase"), DefaultConstantThreshold, 8)
	var got []string
	for _, m := range modes {
		got = append(got, m.String())
	}
	want := map[string]bool{"inPhase(+,-)": true, "inPhase(-,+)": true, "inPhase(+,#)": true}
	if len(got) != len(want) {
		t.Fatalf("modes = %v", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("unexpected mode %s in %v", g, got)
		}
	}
}

func TestGenerateModesAbsoluteThreshold(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("r", "a", "b")
	d := db.New(s)
	for i := 0; i < 5; i++ {
		d.MustInsert("r", "x"+string(rune('0'+i)), "y")
	}
	// Absolute threshold 1: only b (1 distinct value) is constant-able.
	modes := generateModes(d.Relation("r"), ConstantThreshold{Value: 1}, 8)
	hasConstB := false
	for _, m := range modes {
		if m.Symbols[0] == Constant {
			t.Fatalf("a must not be constant-able: %v", m)
		}
		if m.Symbols[1] == Constant {
			hasConstB = true
		}
	}
	if !hasConstB {
		t.Fatal("b must be constant-able")
	}
}

func TestGenerateModesEmptyRelation(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("r", "a")
	d := db.New(s)
	modes := generateModes(d.Relation("r"), DefaultConstantThreshold, 8)
	if len(modes) != 1 || modes[0].String() != "r(+)" {
		t.Fatalf("modes = %v", modes)
	}
}

func TestGenerateModesNeverAllConstants(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("r", "a", "b")
	d := db.New(s)
	for i := 0; i < 10; i++ {
		d.MustInsert("r", "x", "y")
	}
	modes := generateModes(d.Relation("r"), ConstantThreshold{Value: 0.5, Relative: true}, 8)
	for _, m := range modes {
		if !m.HasInput() {
			t.Fatalf("mode without + generated: %v", m)
		}
	}
}

func TestCastorDefaultAndNoConstants(t *testing.T) {
	s := uwSchema()
	castor := CastorDefault(s, "advisedBy", 2)
	if err := castor.Validate(s, "advisedBy", 2); err != nil {
		t.Fatal(err)
	}
	nc := NoConstants(s, "advisedBy", 2)
	if err := nc.Validate(s, "advisedBy", 2); err != nil {
		t.Fatal(err)
	}
	// Castor must admit strictly more modes than NoConstants.
	if len(castor.Modes) <= len(nc.Modes) {
		t.Fatalf("castor %d modes, noconst %d", len(castor.Modes), len(nc.Modes))
	}
	// NoConstants must have no # anywhere.
	for _, m := range nc.Modes {
		for _, sym := range m.Symbols {
			if sym == Constant {
				t.Fatalf("NoConstants produced %v", m)
			}
		}
	}
	// All types identical in both.
	for _, p := range castor.Predicates {
		for _, ty := range p.Types {
			if ty != "T0" {
				t.Fatalf("CastorDefault type %v", p)
			}
		}
	}
	// Both compile.
	if _, err := castor.Compile(s, "advisedBy", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Compile(s, "advisedBy", 2); err != nil {
		t.Fatal(err)
	}
}

func TestCartesianPredicatesCap(t *testing.T) {
	types := [][]string{{"A", "B", "C"}, {"D", "E", "F"}, {"G", "H"}}
	all := cartesianPredicates("r", types, 1000)
	if len(all) != 18 {
		t.Fatalf("full product = %d, want 18", len(all))
	}
	capped := cartesianPredicates("r", types, 5)
	if len(capped) != 5 {
		t.Fatalf("capped product = %d, want 5", len(capped))
	}
	// No duplicates in the full product.
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.String()] {
			t.Fatalf("duplicate predicate def %v", p)
		}
		seen[p.String()] = true
	}
}

func TestBiasStringSections(t *testing.T) {
	b := MustParse("student(T1)\nstudent(+)")
	s := b.String()
	if !strings.Contains(s, "% predicate definitions") || !strings.Contains(s, "% mode definitions") {
		t.Fatalf("String missing section comments:\n%s", s)
	}
}
