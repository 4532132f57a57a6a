// Differential tests for the incremental-repair contract (DESIGN.md
// §16): repair(theory, batch) must be semantically equivalent to a full
// from-scratch re-learn on the post-batch database — bit-identical
// theories, identical held-out verdicts — for insert and delete batches,
// under every sampler, for commits repair cannot trust, at workers
// 1/4/8, and across the sharded transport. Chaos legs crash the commit and the repair at
// injected faultpoints and prove the retry stitches to the reference.
package autobias_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	autobias "repro"
	"repro/internal/faultpoint"
	"repro/internal/testkit"
)

// liveTask builds the repair suite's learning problem: the small UW
// instance the other differential suites use, with held-out examples
// reserved for verdict comparison.
func liveTask(t *testing.T) (autobias.Task, []autobias.Example) {
	t.Helper()
	ds, err := autobias.GenerateDataset("uw", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	task := autobias.TaskFromDataset(ds)
	heldOut := append(append([]autobias.Example(nil), task.Pos[8:]...), task.Neg...)
	task.Pos = task.Pos[:8]
	return task, heldOut
}

// randomBatch draws a mutation batch against the task's database:
// inserts recombine constants already in the data (so they can actually
// perturb ground BCs) plus a few with fresh constants, and deletes
// remove existing tuples. Deterministic for a given seed.
func randomBatch(t *testing.T, task autobias.Task, seed int64, inserts, deletes int) autobias.IngestBatch {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var muts []autobias.IngestMutation
	names := task.DB.Schema().Names()
	for i := 0; i < inserts; i++ {
		name := names[r.Intn(len(names))]
		rel := task.DB.Relation(name)
		snap := rel.Snapshot()
		if len(snap) == 0 {
			continue
		}
		tuple := make([]string, len(rel.Schema.Attributes))
		for j := range tuple {
			// Mostly existing values (drawn from random rows of the same
			// column), sometimes a fresh constant the interner has never
			// seen.
			if r.Intn(5) == 0 {
				tuple[j] = fmt.Sprintf("fresh_%d_%d", seed, i)
			} else {
				tuple[j] = snap[r.Intn(len(snap))][j]
			}
		}
		muts = append(muts, autobias.IngestMutation{Op: autobias.IngestInsert, Relation: name, Tuple: tuple})
	}
	for i := 0; i < deletes; i++ {
		name := names[r.Intn(len(names))]
		rel := task.DB.Relation(name)
		snap := rel.Snapshot()
		if len(snap) == 0 {
			continue
		}
		row := snap[r.Intn(len(snap))]
		muts = append(muts, autobias.IngestMutation{Op: autobias.IngestDelete, Relation: name, Tuple: append([]string(nil), row...)})
	}
	if len(muts) == 0 {
		t.Fatal("randomBatch produced no mutations")
	}
	return autobias.IngestBatch{Mutations: muts}
}

// duplicateBatch re-inserts existing rows. Duplicates change tuple
// multiplicities (and therefore lookup frontiers) without adding
// distinct values, so the INDs cannot move — but the induced bias still
// can: multiplicities are what the constant threshold's frequencies are
// made of, and seed 62, for one, drifts it. Legs that need the replay
// path pin a seed that does not and say so through replayed.
func duplicateBatch(t *testing.T, task autobias.Task, seed int64, n int) autobias.IngestBatch {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	names := task.DB.Schema().Names()
	var muts []autobias.IngestMutation
	for i := 0; i < n; i++ {
		rel := task.DB.Relation(names[r.Intn(len(names))])
		snap := rel.Snapshot()
		if len(snap) == 0 {
			continue
		}
		row := snap[r.Intn(len(snap))]
		muts = append(muts, autobias.IngestMutation{Op: autobias.IngestInsert, Relation: rel.Schema.Name, Tuple: append([]string(nil), row...)})
	}
	if len(muts) == 0 {
		t.Fatal("duplicateBatch produced no mutations")
	}
	return autobias.IngestBatch{Mutations: muts}
}

// entityBatch gives one person n new publications under fresh titles —
// live-loop's commit shape. Fresh constants in the near-unique title
// attribute leave the induced bias alone, and only the examples whose
// bottom clauses reach the person can change.
func entityBatch(person string, n int) autobias.IngestBatch {
	var muts []autobias.IngestMutation
	for i := 0; i < n; i++ {
		muts = append(muts, autobias.IngestMutation{
			Op:       autobias.IngestInsert,
			Relation: "publication",
			Tuple:    []string{fmt.Sprintf("title_live_%03d", i), person},
		})
	}
	return autobias.IngestBatch{Mutations: muts}
}

// replayed fails the leg, naming the cause, when a fixture batch that was
// chosen to exercise the repair path drifted the bias into the re-learn
// instead — where every equivalence assertion holds vacuously.
func replayed(t *testing.T, rep *autobias.Repair, label string) {
	t.Helper()
	if rep.FullRelearn {
		t.Fatalf("%s: the fixture batch forced a full re-learn (BiasDrift=%v); the leg compared a re-learn with a re-learn", label, rep.BiasDrift)
	}
}

// verdicts scores the held-out examples through a result's own coverage
// machinery.
func verdicts(t *testing.T, res *autobias.Result, heldOut []autobias.Example) []bool {
	t.Helper()
	out := make([]bool, len(heldOut))
	for i, e := range heldOut {
		v, err := res.Covers(e)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// repairVsRelearn runs the full contract check for one (batch, workers)
// configuration of the induced-bias learner over a randomized batch.
func repairVsRelearn(t *testing.T, batchSeed int64, inserts, deletes, workers int) (*autobias.Repair, string) {
	t.Helper()
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: workers}
	return repairVsRelearnBatch(t, opts, fmt.Sprintf("seed=%d", batchSeed), func(task autobias.Task) autobias.IngestBatch {
		return randomBatch(t, task, batchSeed, inserts, deletes)
	})
}

// repairFixture is the state between the commit and the repair, handed to
// a leg's spoil hooks so they can make the commit one repair cannot trust.
type repairFixture struct {
	task   autobias.Task
	ing    *autobias.Ingestor
	prev   *autobias.Result
	commit autobias.IngestCommit
}

// repairVsRelearnBatch is the contract check itself: learn → commit →
// (spoil) → repair, against a from-scratch re-learn on the database as
// the repair found it. Returns the repair outcome and the repaired theory
// for cross-leg comparison.
func repairVsRelearnBatch(t *testing.T, opts autobias.Options, label string, mkBatch func(autobias.Task) autobias.IngestBatch, spoil ...func(*repairFixture)) (*autobias.Repair, string) {
	t.Helper()
	ctx := context.Background()
	task, heldOut := liveTask(t)
	workers := opts.Workers

	prev, err := autobias.LearnCtx(ctx, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Clauses == 0 {
		t.Fatal("initial learn produced no clauses; the comparison is vacuous")
	}

	f := &repairFixture{task: task, ing: autobias.NewIngestor(task.DB, nil), prev: prev}
	f.commit, err = f.ing.Apply(ctx, mkBatch(task))
	if err != nil {
		t.Fatal(err)
	}
	if f.commit.Version != 1 {
		t.Fatalf("commit version = %d, want 1", f.commit.Version)
	}
	for _, fn := range spoil {
		fn(f)
	}

	rep, err := autobias.RepairCtx(ctx, f.prev, task, f.commit, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Collector = nil // the reference run is not part of what a leg measures
	relearn, err := autobias.LearnCtx(ctx, task, opts)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := rep.Result.Definition.String(), relearn.Definition.String(); got != want {
		t.Errorf("workers=%d %s: repaired theory diverges from re-learn:\n--- repair\n%s\n--- relearn\n%s",
			workers, label, got, want)
	}
	gotV := verdicts(t, rep.Result, heldOut)
	wantV := verdicts(t, relearn, heldOut)
	for i := range gotV {
		if gotV[i] != wantV[i] {
			t.Errorf("workers=%d %s: held-out verdict %d (%s): repair=%v relearn=%v",
				workers, label, i, heldOut[i].String(), gotV[i], wantV[i])
		}
	}
	return rep, rep.Result.Definition.String()
}

// TestRepairEquivalenceInserts pins the contract for insert batches at
// workers 1/4/8; the repaired theories must also agree across worker
// counts.
func TestRepairEquivalenceInserts(t *testing.T) {
	theories := map[int]string{}
	for _, w := range []int{1, 4, 8} {
		_, theory := repairVsRelearn(t, 42, 12, 0, w)
		theories[w] = theory
	}
	if theories[4] != theories[1] || theories[8] != theories[1] {
		t.Error("repaired theories diverge across worker counts")
	}

	// The top-down search under the same covering loop (DESIGN.md §21)
	// repairs like the bottom-up one: new facts about one person, the
	// expert bias cannot drift, so the replay over carried verdicts — not
	// a fallback — must reproduce the re-learn.
	opts := autobias.Options{Method: autobias.MethodAleph, Seed: 1, Workers: 1}
	rep, _ := repairVsRelearnBatch(t, opts, "aleph entity-local", func(task autobias.Task) autobias.IngestBatch {
		return entityLocalBatch(t, task, 6)
	})
	if rep.FullRelearn || rep.Unchanged || rep.DirtyExamples == 0 || rep.CarriedHits == 0 {
		t.Errorf("aleph repair did not take the replay path: fullRelearn=%v unchanged=%v dirty=%d carriedHits=%d",
			rep.FullRelearn, rep.Unchanged, rep.DirtyExamples, rep.CarriedHits)
	}

	// The top-down search also reads the database directly: the ten most
	// frequent values of a # attribute. Ten new phases, each more frequent
	// than any real one and held only by new students, touch no example's
	// BC yet push every real phase out of inPhase(+,#)'s reach — so the
	// previous theory, which tests phases, is not what a re-learn finds,
	// and the Unchanged shortcut would be wrong.
	rep, theory := repairVsRelearnBatch(t, opts, "aleph constant-displacing", displacePhasesBatch)
	if rep.FullRelearn || rep.Unchanged || rep.DirtyExamples != 0 {
		t.Errorf("aleph repair over a BC-disjoint batch: fullRelearn=%v unchanged=%v dirty=%d, want a replay with nothing dirty",
			rep.FullRelearn, rep.Unchanged, rep.DirtyExamples)
	}
	if strings.Contains(theory, "inPhase(") {
		t.Errorf("the batch displaced no constant the theory uses; the leg proves nothing:\n%s", theory)
	}
}

// TestRepairEquivalenceSamplers: the exact check decides under every
// sampler. Random and stratified sampling read relation-wide statistics
// no value screen can bound, so every cached example is rebuilt — once —
// and the ones a live-loop-shaped commit (new publications for a person
// in a training example) really changed are replayed over everything
// else, carried.
func TestRepairEquivalenceSamplers(t *testing.T) {
	for _, sampling := range []autobias.Sampling{autobias.SamplingRandom, autobias.SamplingStratified} {
		theories := map[int]string{}
		for _, w := range []int{1, 4} {
			label := fmt.Sprintf("%v entity-local", sampling)
			mc := autobias.NewMetricsCollector()
			opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: w, Sampling: sampling, Collector: mc}
			var learned map[string]int64
			rep, theory := repairVsRelearnBatch(t, opts, label, func(task autobias.Task) autobias.IngestBatch {
				return entityBatch(task.Pos[len(task.Pos)-1].Terms[0].Name, 6)
			}, func(f *repairFixture) { learned = f.prev.Metrics.Counters })
			theories[w] = theory
			replayed(t, rep, label)
			if rep.Unchanged || rep.DirtyExamples == 0 || rep.CarriedHits == 0 {
				t.Errorf("workers=%d %s: unchanged=%v dirty=%d carriedHits=%d, want a replay over carried verdicts",
					w, label, rep.Unchanged, rep.DirtyExamples, rep.CarriedHits)
			}

			// One ground-BC build per example per repair: every cached example
			// checked, plus whatever the replay touches for the first time. A
			// dirty example's rebuilt entry is installed by the check, so it is
			// in entered but was built there, not again.
			now := rep.Result.Metrics.Counters
			cached, entered := learned["coverage.bc_built"], now["coverage.bc_built"]-learned["coverage.bc_built"]
			checked := rep.Result.Metrics.Gauges["ingest.examples_checked"]
			if checked != cached {
				t.Errorf("workers=%d %s: checked %d of %d cached examples, want all of them", w, label, checked, cached)
			}
			built := now["bottom.ground_constructions"] - learned["bottom.ground_constructions"]
			if want := checked + entered - int64(rep.DirtyExamples); built != want {
				t.Errorf("workers=%d %s: %d ground BCs built, want %d (%d checked + %d entered - %d dirty)",
					w, label, built, want, checked, entered, rep.DirtyExamples)
			}
			// Both phases are spans of their own, one of each per repair.
			for _, name := range []string{"repair.check", "repair.replay"} {
				if sp := rep.Result.Metrics.Spans[name]; sp.Count != 1 || sp.TotalNS <= 0 {
					t.Errorf("workers=%d %s: span %s = %+v, want one timed span", w, label, name, sp)
				}
			}
		}
		if theories[4] != theories[1] {
			t.Errorf("%v: repaired theories diverge across worker counts", sampling)
		}
	}
}

// displacePhasesBatch gives ten new phases more students each — all of
// them new too — than the most common real phase has.
func displacePhasesBatch(task autobias.Task) autobias.IngestBatch {
	rel := task.DB.Relation("inPhase")
	var muts []autobias.IngestMutation
	for p := 0; p < 10; p++ {
		for s := 0; s <= rel.MaxFrequency(1); s++ {
			muts = append(muts, autobias.IngestMutation{
				Op:       autobias.IngestInsert,
				Relation: "inPhase",
				Tuple:    []string{fmt.Sprintf("stud_live_%d_%d", p, s), fmt.Sprintf("phase_live_%d", p)},
			})
		}
	}
	return autobias.IngestBatch{Mutations: muts}
}

// TestRepairEquivalenceDeletes pins the contract for delete batches.
func TestRepairEquivalenceDeletes(t *testing.T) {
	theories := map[int]string{}
	for _, w := range []int{1, 4, 8} {
		_, theory := repairVsRelearn(t, 43, 0, 10, w)
		theories[w] = theory
	}
	if theories[4] != theories[1] || theories[8] != theories[1] {
		t.Error("repaired theories diverge across worker counts")
	}
}

// TestRepairEquivalenceMixedRandomized sweeps randomized mixed batches:
// several seeds, inserts and deletes together, sequential engine.
func TestRepairEquivalenceMixedRandomized(t *testing.T) {
	for seed := int64(50); seed < 54; seed++ {
		repairVsRelearn(t, seed, 8, 6, 1)
	}
}

// TestRepairFreshConstantsFastPath pins the no-op fast path: a
// net-zero batch (insert and delete of the same fresh-constant tuple)
// leaves the bias untouched, its values never appear in any ground BC,
// so nothing is dirty and repair returns the previous theory unchanged.
func TestRepairFreshConstantsFastPath(t *testing.T) {
	ctx := context.Background()
	task, _ := liveTask(t)
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 1}
	prev, err := autobias.LearnCtx(ctx, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	name := task.DB.Schema().Names()[0]
	rel := task.DB.Relation(name)
	tuple := make([]string, len(rel.Schema.Attributes))
	for j := range tuple {
		tuple[j] = fmt.Sprintf("never_seen_%d", j)
	}
	ing := autobias.NewIngestor(task.DB, nil)
	commit, err := ing.Apply(ctx, autobias.IngestBatch{Mutations: []autobias.IngestMutation{
		{Op: autobias.IngestInsert, Relation: name, Tuple: tuple},
		{Op: autobias.IngestDelete, Relation: name, Tuple: append([]string(nil), tuple...)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if commit.Version != 1 || commit.Inserted != 1 || commit.Deleted != 1 {
		t.Fatalf("unexpected commit %+v", commit)
	}
	rep, err := autobias.RepairCtx(ctx, prev, task, commit, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BiasDrift || rep.FullRelearn {
		t.Fatalf("net-zero batch must not drift the bias: %+v", rep)
	}
	if !rep.Unchanged || rep.DirtyExamples != 0 {
		t.Fatalf("expected unchanged fast path, got %+v", rep)
	}
	if rep.Result.Definition.String() != prev.Definition.String() {
		t.Fatal("fast path returned a different theory")
	}

	// The same holds for a commit repair cannot trust: a second net-zero
	// batch lands, the first commit now understates the delta, and the
	// check over every cached example still finds nothing changed.
	if _, err := ing.Apply(ctx, autobias.IngestBatch{Mutations: []autobias.IngestMutation{
		{Op: autobias.IngestInsert, Relation: name, Tuple: tuple},
		{Op: autobias.IngestDelete, Relation: name, Tuple: append([]string(nil), tuple...)},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err = autobias.RepairCtx(ctx, prev, task, commit, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullRelearn || !rep.Unchanged || rep.DirtyExamples != 0 || rep.Result != prev {
		t.Fatalf("version-skewed net-zero commit: expected unchanged, got %+v", rep)
	}
}

// TestRepairShardedTransport runs the repair leg over a live shard
// fleet started on the post-batch database: the repaired theory must
// match the single-process repair (and therefore the re-learn
// reference) bit for bit.
func TestRepairShardedTransport(t *testing.T) {
	ctx := context.Background()
	base := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 2}

	// Single-process reference: learn, commit, repair.
	task, heldOut := liveTask(t)
	prev, err := autobias.LearnCtx(ctx, task, base)
	if err != nil {
		t.Fatal(err)
	}
	batch := duplicateBatch(t, task, 77, 12)
	ing := autobias.NewIngestor(task.DB, nil)
	commit, err := ing.Apply(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := autobias.RepairCtx(ctx, prev, task, commit, base)
	if err != nil {
		t.Fatal(err)
	}
	replayed(t, refRep, "duplicate batch 77")

	// Sharded leg: identical problem, fleet workers built over the
	// post-batch database.
	task2, _ := liveTask(t)
	prev2, err := autobias.LearnCtx(ctx, task2, base)
	if err != nil {
		t.Fatal(err)
	}
	ing2 := autobias.NewIngestor(task2.DB, nil)
	commit2, err := ing2.Apply(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := testkit.StartShardFleet(task2, base, [][]string{{"i0"}, {"i1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	shardOpts := base
	shardOpts.Shard = &autobias.ShardOptions{Workers: fleet.URLs}
	shardRep, err := autobias.RepairCtx(ctx, prev2, task2, commit2, shardOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shardRep.Result.Definition.String(), refRep.Result.Definition.String(); got != want {
		t.Errorf("sharded repair diverges from single-process repair:\n--- sharded\n%s\n--- reference\n%s", got, want)
	}
	gotV := verdicts(t, shardRep.Result, heldOut)
	wantV := verdicts(t, refRep.Result, heldOut)
	for i := range gotV {
		if gotV[i] != wantV[i] {
			t.Errorf("held-out verdict %d: sharded=%v reference=%v", i, gotV[i], wantV[i])
		}
	}
}

// TestRepairCrashMidRepairResumes is the chaos leg: a fault injected at
// the per-clause repair site kills the first repair attempt; the retry
// (same previous result, same commit) must stitch to the re-learn
// reference exactly. The previous result's coverage state is read-only
// during repair, so a crashed attempt leaves nothing to clean up.
func TestRepairCrashMidRepairResumes(t *testing.T) {
	ctx := context.Background()
	task, _ := liveTask(t)
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 1}
	prev, err := autobias.LearnCtx(ctx, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	ing := autobias.NewIngestor(task.DB, nil)
	// Seed 94 is pinned: its duplicate batch dirties examples without
	// drifting the bias, so the per-clause repair loop (and its
	// faultpoint) is reached.
	commit, err := ing.Apply(ctx, duplicateBatch(t, task, 94, 10))
	if err != nil {
		t.Fatal(err)
	}

	site := "ingest.repair:" + prev.Definition.Clauses[0].Key()
	faultpoint.Enable(site, faultpoint.Fault{Err: errors.New("injected repair crash")})
	_, err = autobias.RepairCtx(ctx, prev, task, commit, opts)
	faultpoint.Reset()
	if err == nil {
		t.Fatal("injected fault at the per-clause repair site did not fire")
	}

	rep, err := autobias.RepairCtx(ctx, prev, task, commit, opts)
	if err != nil {
		t.Fatal(err)
	}
	relearn, err := autobias.LearnCtx(ctx, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Result.Definition.String(), relearn.Definition.String(); got != want {
		t.Errorf("post-crash repair diverges from re-learn:\n--- repair\n%s\n--- relearn\n%s", got, want)
	}
}

// TestRepairUntrustedCommitReplays: a commit whose version no longer
// matches the database (later batches landed before repair ran), one
// stripped of its change summary (a hand-built wire commit) and a
// previous result that kept no INDs cannot drive the cheap paths — the
// incremental IND refresh, the value screen — but none of them is a
// reason to re-learn: repair rediscovers the INDs, checks every cached
// example and replays, equal to the re-learn on the database as it
// stands. Seeds 71 and 77 are pinned: their duplicate batches, alone and
// one after the other, leave the induced bias alone, and 77's changes
// ground BCs.
func TestRepairUntrustedCommitReplays(t *testing.T) {
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 1}
	for _, leg := range []struct {
		label string
		seed  int64
		spoil func(*repairFixture)
	}{
		{"version-skewed commit", 71, func(f *repairFixture) {
			if _, err := f.ing.Apply(context.Background(), duplicateBatch(t, f.task, 77, 4)); err != nil {
				t.Fatal(err)
			}
		}},
		{"summary-less commit", 77, func(f *repairFixture) { f.commit.Values = nil }},
		{"previous result without INDs", 77, func(f *repairFixture) {
			noINDs := *f.prev
			noINDs.INDs = nil
			f.prev = &noINDs
		}},
	} {
		rep, _ := repairVsRelearnBatch(t, opts, leg.label, func(task autobias.Task) autobias.IngestBatch {
			return duplicateBatch(t, task, leg.seed, 4)
		}, leg.spoil)
		replayed(t, rep, leg.label)
		if rep.DirtyExamples == 0 || rep.CarriedHits == 0 {
			t.Errorf("%s: dirty=%d carriedHits=%d, want a replay over carried verdicts", leg.label, rep.DirtyExamples, rep.CarriedHits)
		}
	}
}

// TestRepairBiasDriftRelearns pins the one fallback left: a batch that
// changes the induced bias invalidates every mode the learner searched
// under, so repair re-learns from scratch, says so and counts it; the
// repair path proper counts nothing. Seed 62's duplicate batch drifts the
// bias (see duplicateBatch), seed 71's does not.
func TestRepairBiasDriftRelearns(t *testing.T) {
	for _, leg := range []struct {
		seed     int64
		relearns int64
	}{{62, 1}, {71, 0}} {
		mc := autobias.NewMetricsCollector()
		opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 1, Collector: mc}
		rep, _ := repairVsRelearnBatch(t, opts, fmt.Sprintf("seed=%d", leg.seed), func(task autobias.Task) autobias.IngestBatch {
			return duplicateBatch(t, task, leg.seed, 4)
		})
		if drift := leg.relearns == 1; rep.FullRelearn != drift || rep.BiasDrift != drift {
			t.Errorf("seed %d: FullRelearn=%v BiasDrift=%v, want both %v", leg.seed, rep.FullRelearn, rep.BiasDrift, drift)
		}
		if got := mc.Snapshot().Gauges["ingest.full_relearn.bias_drift"]; got != leg.relearns {
			t.Errorf("seed %d: gauge ingest.full_relearn.bias_drift = %d, want %d", leg.seed, got, leg.relearns)
		}
	}
}

// TestRepairProbeSearchesTheRunsBudget: the check re-tests the previous
// clauses on each changed example and compares with the carried verdicts,
// so it must search under the node budget the carried ones were searched
// under — the facade's effective 5000 — whether the caller spelled that
// budget out or left it unset; a re-test on the bare engine's 10000 could
// name a clause invalidated only because it looked longer. Each spelling
// repairs the same chain of the suite's duplicate-row batches, the ones
// that reach the re-test instead of drifting the bias.
func TestRepairProbeSearchesTheRunsBudget(t *testing.T) {
	ctx := context.Background()
	batches := []struct {
		seed int64
		n    int
	}{{71, 4}, {77, 12}}
	var chains [2][]*autobias.Repair
	for i, nodes := range []int{0, 5000} {
		task, _ := liveTask(t)
		opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 1, SubsumeMaxNodes: nodes}
		prev, err := autobias.LearnCtx(ctx, task, opts)
		if err != nil {
			t.Fatal(err)
		}
		ing := autobias.NewIngestor(task.DB, nil)
		for _, b := range batches {
			commit, err := ing.Apply(ctx, duplicateBatch(t, task, b.seed, b.n))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := autobias.RepairCtx(ctx, prev, task, commit, opts)
			if err != nil {
				t.Fatal(err)
			}
			replayed(t, rep, fmt.Sprintf("duplicate batch %d", b.seed))
			chains[i] = append(chains[i], rep)
			prev = rep.Result
		}
	}
	probed := 0
	for k, unset := range chains[0] {
		spelled := chains[1][k]
		if !slices.Equal(unset.InvalidatedClauses, spelled.InvalidatedClauses) {
			t.Errorf("batch %d: invalidated clauses differ between an unset budget and SubsumeMaxNodes 5000:\n%q\n%q",
				batches[k].seed, unset.InvalidatedClauses, spelled.InvalidatedClauses)
		}
		if unset.DirtyExamples != spelled.DirtyExamples || unset.Result.Definition.String() != spelled.Result.Definition.String() {
			t.Errorf("batch %d: the two spellings of one budget repaired differently (dirty %d vs %d)",
				batches[k].seed, unset.DirtyExamples, spelled.DirtyExamples)
		}
		probed += unset.DirtyExamples
		t.Logf("batch %d: %d dirty, %d invalidated", batches[k].seed, unset.DirtyExamples, len(unset.InvalidatedClauses))
	}
	if probed == 0 {
		t.Fatal("no batch dirtied an example; the check compared nothing")
	}
}

// TestRepairCrashMidCommit proves commit atomicity end to end: a fault
// at ingest.commit leaves the database, its version, and a subsequent
// repair exactly as if the batch had never been submitted.
func TestRepairCrashMidCommit(t *testing.T) {
	ctx := context.Background()
	task, _ := liveTask(t)
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 1}
	prev, err := autobias.LearnCtx(ctx, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	digest := task.DB.IndexDigest()
	ing := autobias.NewIngestor(task.DB, nil)
	batch := randomBatch(t, task, 93, 6, 3)

	faultpoint.Enable("ingest.commit", faultpoint.Fault{Err: errors.New("injected commit crash")})
	if _, err := ing.Apply(ctx, batch); err == nil {
		t.Fatal("faulted commit reported success")
	}
	faultpoint.Reset()
	if task.DB.Version() != 0 || task.DB.IndexDigest() != digest {
		t.Fatal("faulted commit mutated the database")
	}

	// The retry applies cleanly and repair proceeds against it.
	commit, err := ing.Apply(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := autobias.RepairCtx(ctx, prev, task, commit, opts)
	if err != nil {
		t.Fatal(err)
	}
	relearn, err := autobias.LearnCtx(ctx, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Definition.String() != relearn.Definition.String() {
		t.Error("repair after commit retry diverges from re-learn")
	}
}
