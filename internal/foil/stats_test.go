package foil

import (
	"testing"

	"repro/internal/bottom"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/metrics"
)

func TestFOILStatsPopulated(t *testing.T) {
	d, c, pos, neg := parentWorld(t)
	mc := metrics.New()
	l := New(d, c, learn.Options{Bottom: bottom.Options{Depth: 2}, Metrics: mc})
	_, stats, err := l.Learn(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Counter(metrics.LearnCandidates) == 0 || mc.Snapshot().Spans["learn.run"].TotalNS <= 0 {
		t.Fatalf("FOIL search not counted: %+v", mc.Snapshot())
	}
	// The one covering loop: its counts and its outcome come with it.
	if mc.Counter(metrics.LearnRounds) == 0 || mc.Counter(metrics.CoverageTests) == 0 || stats.PositivesCovered == 0 || stats.Report == nil {
		t.Fatalf("covering loop not counted: %+v %+v", stats, mc.Snapshot())
	}
}

// TestFOILOptionsNormalization pins the search's own limits (5/300/10)
// and the one loop default it overrides: 150 scoring examples per class,
// where the bottom-up search's 200 stands. The loop's other defaults
// (precision 0.7, seed 1, 5000 subsumption nodes) are learn.Options' and
// reach both searches alike.
func TestFOILOptionsNormalization(t *testing.T) {
	if maxClauseLen != 5 || maxCandidates != 300 || maxConstants != 10 {
		t.Fatalf("limits = %d/%d/%d", maxClauseLen, maxCandidates, maxConstants)
	}
	d, c, pos, neg := parentWorld(t)
	many := func(xs []learn.Example) []learn.Example {
		var out []learn.Example
		for len(out) < 400 {
			out = append(out, xs...)
		}
		return out
	}
	l := New(d, c, learn.Options{})
	ps, ns := l.ScoringSamples(many(pos), many(neg))
	if len(ps) != 150 || len(ns) != 150 {
		t.Fatalf("default scoring samples = %d/%d, want 150/150", len(ps), len(ns))
	}
	l = New(d, c, learn.Options{EvalSampleCap: 40})
	if ps, _ = l.ScoringSamples(many(pos), nil); len(ps) != 40 {
		t.Fatalf("explicit EvalSampleCap ignored: %d", len(ps))
	}
	if so := l.Coverage().SubsumeOptions(); so.MaxNodes != 5000 {
		t.Fatalf("subsume default = %+v", so)
	}
}

func TestFOILEmptyPositives(t *testing.T) {
	d, c, _, neg := parentWorld(t)
	l := New(d, c, learn.Options{})
	def, stats, err := l.Learn(nil, neg)
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() != 0 || stats.PositivesCovered != 0 {
		t.Fatal("no positives must learn nothing")
	}
}

func TestFOILMinPrecisionRejects(t *testing.T) {
	// Contradictory labels: same structure positive and negative. With
	// MinPrecision 1.0 nothing can be kept.
	d, c, pos, _ := parentWorld(t)
	neg := append([]learn.Example(nil), pos...) // identical examples as negatives
	l := New(d, c, learn.Options{Bottom: bottom.Options{Depth: 2}, MinPrecision: 1.0})
	def, _, err := l.Learn(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() != 0 {
		t.Fatalf("contradictory data must yield no clauses:\n%s", def)
	}
}

func TestVarNameAndItoa(t *testing.T) {
	if varName(0) != "V0" || varName(12) != "V12" || varName(907) != "V907" {
		t.Fatalf("varName: %s %s %s", varName(0), varName(12), varName(907))
	}
}

func TestIntersects(t *testing.T) {
	a := map[string]bool{"x": true, "y": true}
	b := map[string]bool{"y": true}
	c := map[string]bool{"z": true}
	if !intersects(a, b) || intersects(a, c) || intersects(nil, a) {
		t.Fatal("intersects")
	}
}

func TestHeadLiteralTypes(t *testing.T) {
	d, c, _, _ := parentWorld(t)
	fs := &search{db: d, bias: c, maxClauseLen: maxClauseLen, maxConstants: maxConstants}
	head, varTypes, next := fs.headLiteral()
	if head.Predicate != "grandparent" || len(head.Terms) != 2 {
		t.Fatalf("head = %v", head)
	}
	if next != 2 {
		t.Fatalf("next = %d", next)
	}
	for _, tm := range head.Terms {
		if !tm.IsVar() {
			t.Fatalf("head term %v must be a variable", tm)
		}
		if len(varTypes[tm.Name]) == 0 {
			t.Fatalf("head variable %s untyped", tm.Name)
		}
	}
	_ = logic.Literal{}
}
