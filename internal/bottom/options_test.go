package bottom

import (
	"testing"

	"repro/internal/logic"
)

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.Depth != 2 || o.SampleSize != 20 || o.MaxLiterals != 400 || o.Seed != 1 {
		t.Fatalf("defaults = %+v", o)
	}
	custom := Options{Depth: 3, SampleSize: 5, MaxLiterals: 10, Seed: 9}.normalized()
	if custom.Depth != 3 || custom.SampleSize != 5 || custom.MaxLiterals != 10 || custom.Seed != 9 {
		t.Fatalf("explicit values must be preserved: %+v", custom)
	}
}

func TestUnknownStrategyFails(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	b := NewBuilder(d, c, Options{Strategy: Strategy(42)})
	if _, err := b.Construct(logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita"))); err == nil {
		t.Fatal("unknown strategy must fail")
	}
}

func TestBuilderOptionsAccessor(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	b := NewBuilder(d, c, Options{SampleSize: 7})
	if got := b.Options().SampleSize; got != 7 {
		t.Fatalf("Options().SampleSize = %d", got)
	}
}

func TestGroundAndVariabilizedReachSameTuples(t *testing.T) {
	// The ground BC must contain exactly the tuples whose literals appear
	// (variabilized) in the regular BC: same traversal, different terms.
	d := table4(t)
	c := table3Bias(t, d.Schema())
	ex := logic.NewLiteral("advisedBy", logic.Const("juan"), logic.Const("sarita"))
	for _, strat := range []Strategy{Naive, Random, Stratified} {
		vb := NewBuilder(d, c, Options{Strategy: strat, Depth: 2, Seed: 4})
		gb := NewBuilder(d, c, Options{Strategy: strat, Depth: 2, Seed: 4})
		v, err := vb.Construct(ex)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gb.ConstructGround(ex)
		if err != nil {
			t.Fatal(err)
		}
		// Predicates multiset of the ground BC ⊆ predicates of the
		// variabilized BC (variabilized may add per-mode variants).
		vPreds := map[string]int{}
		for _, l := range v.Body {
			vPreds[l.Predicate]++
		}
		for _, l := range g.Body {
			if vPreds[l.Predicate] == 0 {
				t.Fatalf("%v: ground BC has %s literals the variabilized BC lacks", strat, l.Predicate)
			}
		}
	}
}

func TestSampleUniformExactWhenFits(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	st := seeded(NewBuilder(d, c, Options{SampleSize: 100}), true, 1)
	tuples := d.Relation("publication").Snapshot()
	got := st.sampleUniform(tuples)
	if len(got) != len(tuples) {
		t.Fatalf("sample of undersized input must be identity: %d vs %d", len(got), len(tuples))
	}
}

func TestSampleUniformNoDuplicates(t *testing.T) {
	d := table4(t)
	c := table3Bias(t, d.Schema())
	st := seeded(NewBuilder(d, c, Options{SampleSize: 3}), true, 1)
	tuples := d.Relation("publication").Snapshot() // 4 tuples
	for trial := 0; trial < 50; trial++ {
		got := st.sampleUniform(tuples)
		if len(got) != 3 {
			t.Fatalf("sample size = %d", len(got))
		}
		seen := map[string]bool{}
		for _, tp := range got {
			k := tp[0] + "|" + tp[1]
			if seen[k] {
				t.Fatalf("duplicate tuple in uniform sample: %v", got)
			}
			seen[k] = true
		}
	}
}
