// Differential tests for the incremental-repair contract (DESIGN.md
// §16): repair(theory, batch) must be semantically equivalent to a full
// from-scratch re-learn on the post-batch database — bit-identical
// theories, identical held-out verdicts — for insert and delete batches,
// under every sampler, whatever commit repair is handed, at workers
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
// made of, and seed 62, for one, drifts it.
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
// configuration of the induced-bias learner over a randomized batch. The
// suite's random batches recombine existing constants and all drift the
// induced bias, so each leg is a replay under a new bias.
func repairVsRelearn(t *testing.T, batchSeed int64, inserts, deletes, workers int) (*autobias.Repair, string) {
	t.Helper()
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: workers}
	rep, theory := repairVsRelearnBatch(t, opts, fmt.Sprintf("seed=%d", batchSeed), func(task autobias.Task) autobias.IngestBatch {
		return randomBatch(t, task, batchSeed, inserts, deletes)
	})
	if !rep.BiasDrift || rep.Unchanged {
		t.Errorf("workers=%d seed=%d: BiasDrift=%v Unchanged=%v, want a replay under a drifted bias", workers, batchSeed, rep.BiasDrift, rep.Unchanged)
	}
	return rep, theory
}

// repairFixture is the state between the commit and the repair, handed to
// a leg's spoil hooks so they can land more batches before repair runs.
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
	// expert bias cannot drift, so the replay over carried verdicts must
	// reproduce the re-learn.
	opts := autobias.Options{Method: autobias.MethodAleph, Seed: 1, Workers: 1}
	rep, _ := repairVsRelearnBatch(t, opts, "aleph entity-local", func(task autobias.Task) autobias.IngestBatch {
		return entityLocalBatch(t, task, 6)
	})
	if rep.BiasDrift || rep.Unchanged || rep.DirtyExamples == 0 || rep.CarriedHits == 0 {
		t.Errorf("aleph repair did not take the replay path: biasDrift=%v unchanged=%v dirty=%d carriedHits=%d",
			rep.BiasDrift, rep.Unchanged, rep.DirtyExamples, rep.CarriedHits)
	}

	// The top-down search also reads the database directly: the ten most
	// frequent values of a # attribute. Ten new phases, each more frequent
	// than any real one and held only by new students, touch no example's
	// BC yet push every real phase out of inPhase(+,#)'s reach — so the
	// previous theory, which tests phases, is not what a re-learn finds,
	// and the Unchanged shortcut would be wrong.
	rep, theory := repairVsRelearnBatch(t, opts, "aleph constant-displacing", displacePhasesBatch)
	if rep.BiasDrift || rep.Unchanged || rep.DirtyExamples != 0 {
		t.Errorf("aleph repair over a BC-disjoint batch: biasDrift=%v unchanged=%v dirty=%d, want a replay with nothing dirty",
			rep.BiasDrift, rep.Unchanged, rep.DirtyExamples)
	}
	if strings.Contains(theory, "inPhase(") {
		t.Errorf("the batch displaced no constant the theory uses; the leg proves nothing:\n%s", theory)
	}
}

// TestRepairEquivalenceSamplers: the exact check decides under every
// sampler. Random and stratified sampling read relation-wide statistics;
// every cached example is rebuilt — once — as under any sampler, and the
// ones a live-loop-shaped commit (new publications for a person in a
// training example) really changed are replayed over everything else,
// carried.
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
	if rep.BiasDrift {
		t.Fatalf("net-zero batch must not drift the bias: %+v", rep)
	}
	if !rep.Unchanged || rep.DirtyExamples != 0 {
		t.Fatalf("expected unchanged fast path, got %+v", rep)
	}
	if rep.Result.Definition.String() != prev.Definition.String() {
		t.Fatal("fast path returned a different theory")
	}

	// The same holds for a version-skewed commit: a second net-zero batch
	// lands, the first commit now names an older version, and the check
	// over every cached example still finds nothing changed.
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
	if !rep.Unchanged || rep.DirtyExamples != 0 || rep.Result != prev {
		t.Fatalf("version-skewed net-zero commit: expected unchanged, got %+v", rep)
	}
}

// TestRepairShardedTransport runs the repair leg end to end over the
// sharded transport: the previous theory is learned through one fleet,
// the batch commits, and the repair runs through a fleet started on the
// post-batch database. A coordinator stores the verdicts its workers
// resolved without ever building those examples' ground BCs, so only its
// own examples' verdicts can be checked and carried. The repaired theory
// and held-out verdicts must equal both the single-process repair and a
// cold re-learn, and a later commit the check finds nothing dirty in
// must still replay.
func TestRepairShardedTransport(t *testing.T) {
	ctx := context.Background()
	base := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 2}
	layout := [][]string{{"i0"}, {"i1"}}
	sharded := func(fleet *testkit.ShardFleet) autobias.Options {
		o := base
		o.Shard = &autobias.ShardOptions{Workers: fleet.URLs}
		return o
	}

	// Single-process reference: learn, commit, repair.
	task, heldOut := liveTask(t)
	prev, err := autobias.LearnCtx(ctx, task, base)
	if err != nil {
		t.Fatal(err)
	}
	batch := duplicateBatch(t, task, 77, 12)
	commit, err := autobias.NewIngestor(task.DB, nil).Apply(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := autobias.RepairCtx(ctx, prev, task, commit, base)
	if err != nil {
		t.Fatal(err)
	}
	relearn, err := autobias.LearnCtx(ctx, task, base)
	if err != nil {
		t.Fatal(err)
	}

	// Sharded leg: identical problem, each phase through a fleet built over
	// the database as that phase sees it.
	task2, _ := liveTask(t)
	before, err := testkit.StartShardFleet(task2, base, layout)
	if err != nil {
		t.Fatal(err)
	}
	prev2, err := autobias.LearnCtx(ctx, task2, sharded(before))
	before.Close()
	if err != nil {
		t.Fatal(err)
	}
	ing2 := autobias.NewIngestor(task2.DB, nil)
	commit2, err := ing2.Apply(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	after, err := testkit.StartShardFleet(task2, base, layout)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	shardRep, err := autobias.RepairCtx(ctx, prev2, task2, commit2, sharded(after))
	if err != nil {
		t.Fatal(err)
	}
	if shardRep.BiasDrift || shardRep.Unchanged {
		t.Errorf("BiasDrift=%v Unchanged=%v, want duplicate batch 77 replayed under a stable bias", shardRep.BiasDrift, shardRep.Unchanged)
	}
	gotV := verdicts(t, shardRep.Result, heldOut)
	for _, ref := range []struct {
		label string
		res   *autobias.Result
	}{{"single-process repair", refRep.Result}, {"cold re-learn", relearn}} {
		if got, want := shardRep.Result.Definition.String(), ref.res.Definition.String(); got != want {
			t.Errorf("sharded repair diverges from the %s:\n--- sharded\n%s\n--- %s\n%s", ref.label, got, ref.label, want)
		}
		wantV := verdicts(t, ref.res, heldOut)
		for i := range gotV {
			if gotV[i] != wantV[i] {
				t.Errorf("held-out verdict %d: sharded=%v %s=%v", i, gotV[i], ref.label, wantV[i])
			}
		}
	}

	// A second commit reaches only a student of a negative example, whose
	// verdicts the workers resolved: the check finds nothing dirty among
	// the examples it can see, but it never saw that one, so the repair
	// must replay instead of returning the previous theory.
	commit3, err := ing2.Apply(ctx, entityBatch("stud_0057", 6))
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := autobias.RepairCtx(ctx, shardRep.Result, task2, commit3, base)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.DirtyExamples != 0 || rep3.Unchanged {
		t.Errorf("dirty=%d Unchanged=%v, want a replay with nothing dirty: unchecked verdicts rule out the shortcut", rep3.DirtyExamples, rep3.Unchanged)
	}
	relearn3, err := autobias.LearnCtx(ctx, task2, base)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep3.Result.Definition.String(), relearn3.Definition.String(); got != want {
		t.Errorf("repair over a fleet-learned theory diverges from re-learn:\n--- repair\n%s\n--- relearn\n%s", got, want)
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

// TestRepairSkewedCommitReplays: a commit whose version no longer
// matches the database (a later batch landed before repair ran) repairs
// like any other, because repair never reads the commit: it checks every
// cached example against the database as it stands and replays, equal to
// the re-learn. Seeds 71 and 77 are pinned: their duplicate batches,
// alone and one after the other, leave the induced bias alone, and 77's
// changes ground BCs.
func TestRepairSkewedCommitReplays(t *testing.T) {
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 1}
	rep, _ := repairVsRelearnBatch(t, opts, "version-skewed commit", func(task autobias.Task) autobias.IngestBatch {
		return duplicateBatch(t, task, 71, 4)
	}, func(f *repairFixture) {
		if _, err := f.ing.Apply(context.Background(), duplicateBatch(t, f.task, 77, 4)); err != nil {
			t.Fatal(err)
		}
	})
	if rep.BiasDrift || rep.DirtyExamples == 0 || rep.CarriedHits == 0 {
		t.Errorf("biasDrift=%v dirty=%d carriedHits=%d, want a replay over carried verdicts under a stable bias",
			rep.BiasDrift, rep.DirtyExamples, rep.CarriedHits)
	}
}

// TestRepairChecksTheDatabaseNotTheCommit: a commit from another copy of
// the database — the same version, other values — must repair exactly
// as the honest one, because repair reads nothing from the commit. The
// check rebuilds every cached example against the database as it stands,
// finds the examples the real batch changed and replays.
func TestRepairChecksTheDatabaseNotTheCommit(t *testing.T) {
	ctx := context.Background()
	task, _ := liveTask(t)
	learnMC := autobias.NewMetricsCollector()
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 1, Collector: learnMC}
	prev, err := autobias.LearnCtx(ctx, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	cached := prev.Metrics.Counters["coverage.bc_built"]

	honest, err := autobias.NewIngestor(task.DB, nil).Apply(ctx, entityBatch(task.Pos[len(task.Pos)-1].Terms[0].Name, 6))
	if err != nil {
		t.Fatal(err)
	}
	other, _ := liveTask(t)
	foreign, err := autobias.NewIngestor(other.DB, nil).Apply(ctx, entityBatch("stud_elsewhere", 6))
	if err != nil {
		t.Fatal(err)
	}
	if foreign.Version != honest.Version {
		t.Fatalf("fixture: foreign commit at version %d, honest at %d", foreign.Version, honest.Version)
	}

	opts.Collector = nil
	want, err := autobias.RepairCtx(ctx, prev, task, honest, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.DirtyExamples == 0 || want.Unchanged {
		t.Fatalf("fixture: the honest commit left dirty=%d Unchanged=%v, want a replay", want.DirtyExamples, want.Unchanged)
	}
	opts.Collector = autobias.NewMetricsCollector()
	got, err := autobias.RepairCtx(ctx, prev, task, foreign, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.DirtyExamples != want.DirtyExamples || got.Unchanged {
		t.Errorf("foreign commit: dirty=%d Unchanged=%v, want the honest commit's dirty=%d and a replay",
			got.DirtyExamples, got.Unchanged, want.DirtyExamples)
	}
	if checked := got.Result.Metrics.Gauges["ingest.examples_checked"]; checked != cached {
		t.Errorf("foreign commit: checked %d of %d cached examples, want all of them", checked, cached)
	}
	if got.Result.Definition.String() != want.Result.Definition.String() {
		t.Errorf("foreign commit repaired to another theory:\n--- foreign\n%s\n--- honest\n%s",
			got.Result.Definition.String(), want.Result.Definition.String())
	}
}

// TestRepairBiasDriftReplays: a batch that changes the induced bias is
// repaired like any other — the learner assembled on the new bias, every
// cached example checked, the replay over whatever
// verdicts the new modes left standing — and says so through BiasDrift
// alone. Seed 62's duplicate batch drifts the bias (see duplicateBatch),
// seed 71's does not.
func TestRepairBiasDriftReplays(t *testing.T) {
	for _, leg := range []struct {
		seed  int64
		drift bool
	}{{62, true}, {71, false}} {
		mc := autobias.NewMetricsCollector()
		opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 1, Collector: mc}
		rep, _ := repairVsRelearnBatch(t, opts, fmt.Sprintf("seed=%d", leg.seed), func(task autobias.Task) autobias.IngestBatch {
			return duplicateBatch(t, task, leg.seed, 4)
		})
		if rep.BiasDrift != leg.drift {
			t.Errorf("seed %d: BiasDrift=%v, want %v", leg.seed, rep.BiasDrift, leg.drift)
		}
		if !leg.drift {
			continue
		}
		snap := mc.Snapshot()
		if rep.Unchanged || rep.CarriedHits == 0 {
			t.Errorf("seed %d: Unchanged=%v carriedHits=%d, want a replay over carried verdicts", leg.seed, rep.Unchanged, rep.CarriedHits)
		}
		if sp := snap.Spans["repair.replay"]; sp.Count != 1 {
			t.Errorf("seed %d: %d repair.replay spans, want 1", leg.seed, sp.Count)
		}
		for name := range snap.Gauges {
			if strings.HasPrefix(name, "ingest.full_relearn.") {
				t.Errorf("seed %d: gauge %s is set; repair has no re-learn to count", leg.seed, name)
			}
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
// that dirty examples without drifting the bias.
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
	if !rep.BiasDrift || rep.Unchanged {
		t.Errorf("BiasDrift=%v Unchanged=%v, want random batch 93's replay under a drifted bias", rep.BiasDrift, rep.Unchanged)
	}
}
