package learn

import (
	"context"
	"slices"
	"testing"

	"repro/internal/bottom"
	"repro/internal/db"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/subsume"
)

// TestStoreSharesVerdictsAcrossRenamedTwins: verdicts key canonically,
// so a clause equal to an already-counted one up to variable renaming is
// answered entirely from the store — no subsumption test, no compile.
func TestStoreSharesVerdictsAcrossRenamedTwins(t *testing.T) {
	d, pos, neg := uwWorld(t, 12, 8)
	all := append(append([]Example(nil), pos...), neg...)
	ce := NewCoverage(bottom.NewBuilder(d, uwLearnBias(t, d), bottom.Options{Depth: 1}), subsume.Options{})
	mc := metrics.New()
	ce.SetMetrics(mc)
	tests := func() int { return int(mc.Counter(metrics.CoverageTests)) }
	first := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).")
	twin := logic.MustParseClause("advisedBy(A,B) :- publication(C,A), publication(C,B).")
	if first.Key() != twin.Key() || first.String() == twin.String() {
		t.Fatal("fixture: the clauses must be canonically equal and render differently")
	}

	want, err := count(ce, first, all)
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 || tests() != len(all) {
		t.Fatalf("first count covered %d with %d tests, want >0 with %d", want, tests(), len(all))
	}
	got, err := count(ce, twin, all)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("twin count %d, want %d", got, want)
	}
	if extra := tests() - len(all); extra != 0 {
		t.Errorf("the twin's count ran %d subsumption tests, want 0", extra)
	}
	if ce.record(first) != ce.record(twin) {
		t.Error("twins hold different records")
	}
	if len(ce.records) != 1 || len(ce.byPtr) != 2 {
		t.Errorf("store holds %d records / %d pointers, want 1 / 2", len(ce.records), len(ce.byPtr))
	}
}

// TestARMGMemoNotServedToRenamedTwin is the PR-10 lesson as a unit test:
// an armg result reuses its input's variable names, so the memo must
// miss for a renamed twin (a fresh pass, in the twin's own names) even
// though both share one record.
func TestARMGMemoNotServedToRenamedTwin(t *testing.T) {
	d, pos, _ := uwWorld(t, 12, 8)
	builder := bottom.NewBuilder(d, uwLearnBias(t, d), bottom.Options{Depth: 1})
	mc := metrics.New()
	ce := NewCoverage(builder, subsume.Options{})
	ce.SetMetrics(mc)
	bc, err := builder.Construct(pos[0])
	if err != nil {
		t.Fatal(err)
	}
	first := bc.PruneNotHeadConnected()
	ren := make(logic.Substitution)
	for _, v := range first.Variables() {
		ren[v] = logic.Var("Renamed" + v)
	}
	twin := first.Apply(ren)
	if first.Key() != twin.Key() || first.String() == twin.String() {
		t.Fatal("fixture: the clauses must be canonically equal and render differently")
	}

	generalize := func(c *logic.Clause) *logic.Clause {
		t.Helper()
		out, err := ce.GeneralizeManyCtx(context.Background(), []*logic.Clause{c}, pos[1:2])
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	a, b := generalize(first), generalize(twin)
	if a == nil || b == nil {
		t.Fatal("fixture: armg must generalize the seed's bottom clause against another positive")
	}
	snap := mc.Snapshot()
	if snap.Counters["armg.applications"] != 2 || snap.Counters["armg.memo_hits"] != 0 {
		t.Errorf("applications=%d memo_hits=%d, want 2 passes and no hit: the twin must not be served the first clause's entry",
			snap.Counters["armg.applications"], snap.Counters["armg.memo_hits"])
	}
	if a.Key() != b.Key() {
		t.Errorf("twins generalize to different clauses:\n%s\n%s", a, b)
	}
	if a.String() == b.String() {
		t.Error("the twin's result carries the first clause's variable names")
	}
	if generalize(first) != a || generalize(twin) != b {
		t.Error("a repeat application was not served its own memo entry")
	}
	if rec := ce.record(first); rec != ce.record(twin) || len(rec.armg) != 2 {
		t.Errorf("want one record holding both rendered forms, got %d", len(rec.armg))
	}
}

// TestCarriedVerdictsNeedAGroundEntry: the check vouches for an example
// only by comparing its carried ground BC with a rebuilt one, so a
// verdict the previous engine holds without an entry — a coordinator's
// remotely resolved verdict, stored from its transport — is not carried.
// After a batch that un-covers that example, the adopting engine must
// answer like a cold one.
func TestCarriedVerdictsNeedAGroundEntry(t *testing.T) {
	d, pos, _ := uwWorld(t, 12, 8)
	engine := func() *CoverageEngine {
		return NewCoverage(bottom.NewBuilder(d, uwLearnBias(t, d), bottom.Options{Depth: 1}), subsume.Options{})
	}
	ctx := context.Background()
	copub := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y).")
	ce := engine()
	if _, err := count(ce, copub, pos[:1]); err != nil {
		t.Fatal(err)
	}
	ce.SetTransport(&fakeTransport{truth: engine()})
	if _, err := count(ce, copub, pos[1:2]); err != nil {
		t.Fatal(err)
	}
	ce.SetTransport(nil)

	cs := ce.ExtractCarried()
	if cs.Unchecked != 1 {
		t.Errorf("Unchecked = %d, want 1 (the remotely resolved example)", cs.Unchecked)
	}
	if n := d.Relation("publication").DeleteBatch([]db.Tuple{{"t01", "p01"}}); n != 1 {
		t.Fatalf("deleted %d tuples, want 1", n)
	}
	repair := engine()
	dirty, _, err := repair.AdoptCarried(ctx, cs, []*logic.Clause{copub})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 0 {
		t.Fatalf("dirty = %v, want none: the batch reached no example with a ground entry", dirty)
	}
	want, err := engine().Covers(ctx, copub, pos[1])
	if err != nil {
		t.Fatal(err)
	}
	if want {
		t.Fatal("fixture: without t01, s01 and p01 share no paper")
	}
	if got, err := repair.Covers(ctx, copub, pos[1]); err != nil || got != want {
		t.Errorf("adopting engine says covered=%v (err %v), a cold engine %v: an unchecked verdict was carried", got, err, want)
	}
}

// TestDropExamplesReachesEveryRecord: AdoptCarried's check finds the one
// example whose ground BC the data change reached, installs its rebuilt
// entry and removes, in every record, its carried verdicts and armg
// results; everything about the other examples is carried, and consuming
// a carried verdict is counted once however many twins read it.
func TestDropExamplesReachesEveryRecord(t *testing.T) {
	d, pos, _ := uwWorld(t, 12, 8)
	builder := bottom.NewBuilder(d, uwLearnBias(t, d), bottom.Options{Depth: 1})
	ce := NewCoverage(builder, subsume.Options{})
	clauses := []*logic.Clause{
		logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- student(X)."),
	}
	bc, err := builder.Construct(pos[0])
	if err != nil {
		t.Fatal(err)
	}
	clauses = append(clauses, bc.PruneNotHeadConnected())
	ctx := context.Background()
	if _, err := ce.CountMany(ctx, clauses, pos); err != nil {
		t.Fatal(err)
	}
	if _, err := ce.GeneralizeManyCtx(ctx, clauses[2:], pos); err != nil {
		t.Fatal(err)
	}

	cs := ce.ExtractCarried()
	if pairs := cs.ARMGPairs(); len(pairs) != len(pos) {
		t.Fatalf("carried armg memo holds %d pairs, want %d", len(pairs), len(pos))
	}
	// The batch: p01 loses the paper it shares with s01, which changes the
	// ground BC of advisedBy(s01,p01) alone and un-covers it for the
	// co-publication clause.
	dirty := pos[1].String()
	if n := d.Relation("publication").DeleteBatch([]db.Tuple{{"t01", "p01"}}); n != 1 {
		t.Fatalf("deleted %d tuples, want 1", n)
	}
	repair := NewCoverage(bottom.NewBuilder(d, uwLearnBias(t, d), bottom.Options{Depth: 1}), subsume.Options{})
	mc := metrics.New()
	repair.SetMetrics(mc)
	gotDirty, flipped, err := repair.AdoptCarried(ctx, cs, clauses[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotDirty, []string{dirty}) {
		t.Fatalf("dirty = %v, want just %s", gotDirty, dirty)
	}
	if !slices.Equal(flipped, []string{clauses[0].Key()}) {
		t.Errorf("flipped = %q, want the co-publication clause alone", flipped)
	}
	rebuilt := repair.cache[dirty]
	if rebuilt == nil || rebuilt == ce.cache[dirty] || rebuilt.bc.String() == ce.cache[dirty].bc.String() {
		t.Error("the changed example's rebuilt ground entry was not installed")
	}
	if clean := pos[0].String(); repair.cache[clean] != ce.cache[clean] {
		t.Error("an unchanged example's carried ground entry was replaced")
	}
	for i, c := range clauses {
		rec := repair.record(c)
		// The previous theory's clauses were re-tested on the rebuilt entry;
		// any other clause's verdict on it is simply gone.
		if v, ok := rec.verdicts[dirty]; ok != (i < 2) || v&vCarried != 0 {
			t.Errorf("changed example's carried verdict survived for %s", c.Key())
		}
		if v, ok := rec.verdicts[pos[0].String()]; !ok || v&vCarried == 0 {
			t.Errorf("unchanged example's verdict was not carried for %s", c.Key())
		}
	}
	for _, p := range cs.ARMGPairs() {
		if p[1] == dirty {
			t.Errorf("changed example's armg result survived under %q", p[0])
		}
	}
	if got := len(cs.ARMGPairs()); got != len(pos)-1 {
		t.Errorf("%d armg pairs after the check, want %d", got, len(pos)-1)
	}
	if v, ok := ce.lookup(ce.record(clauses[0]), dirty); !ok || v&vCovered == 0 {
		t.Error("the check disturbed the source engine")
	}

	checked := mc.Counter(metrics.CoverageTests)
	if checked != 2 {
		t.Errorf("the check ran %d subsumption tests, want 2 (each previous clause on the changed example)", checked)
	}
	twin := logic.MustParseClause("advisedBy(A,B) :- publication(C,A), publication(C,B).")
	for _, c := range []*logic.Clause{clauses[0], twin, clauses[2]} {
		if _, err := count(repair, c, pos); err != nil {
			t.Fatal(err)
		}
	}
	if got := mc.Counter(metrics.CoverageTests) - checked; got != 1 {
		t.Errorf("replay ran %d subsumption tests, want 1 (the one forgotten verdict)", got)
	}
	if repair.cache[dirty] != rebuilt {
		t.Error("the replay built the changed example's ground BC a second time")
	}
	if hits := repair.CarriedHits(); hits != int64(2*(len(pos)-1)) {
		t.Errorf("carried hits %d, want %d distinct verdicts consumed", hits, 2*(len(pos)-1))
	}
}
