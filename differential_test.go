// Differential tests: the same learning problem must produce the same
// theory and the same deterministic instrumentation under every
// execution strategy — sequential, parallel, and cancelled-then-resumed.
// This file is an external test package because it drives the facade
// through internal/testkit, which itself imports the facade.
package autobias_test

import (
	"context"
	"testing"

	autobias "repro"
	"repro/internal/testkit"
)

// smallTask is a learning problem sized for the cancel-resume harness:
// under 10 positives (so the learner's minimum-criterion threshold is
// identical on the resumed leg, which sees fewer positives) and small
// enough that example sampling never consumes the learner's RNG (the
// resumed leg restarts the RNG from the seed, so any consumed randomness
// would break bit-identical resume).
func smallTask(t *testing.T) autobias.Task {
	t.Helper()
	ds, err := autobias.GenerateDataset("uw", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	task := autobias.TaskFromDataset(ds)
	task.Pos = task.Pos[:8]
	return task
}

// TestDifferentialWorkers is the acceptance check for the metrics
// determinism contract: at 1, 4 and 8 workers the learned theory is
// bit-identical, and every deterministic counter and histogram and the
// engine's test totals (coverage.tests, coverage.memo_hits,
// coverage.bc_cache_hits and the subsume.* gauges) agree exactly: every
// count is exact, so the worker count cannot change which tests run.
// Per-worker utilization is the one coverage gauge left uncompared.
func TestDifferentialWorkers(t *testing.T) {
	task := smallTask(t)
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1}
	legs, diffs, err := testkit.Differential(context.Background(), task, opts, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Error(d)
	}
	if legs[0].Clauses == 0 {
		t.Fatal("differential task learned no clauses; the comparison is vacuous")
	}
}

// TestDifferentialCancelResume verifies the anytime contract: a run
// cancelled deterministically mid-flight (fault-injected
// context.Canceled at the nth bottom-clause construction), resumed over
// the positives its partial theory left uncovered, reproduces the
// uninterrupted theory bit for bit. The cut point is derived from a
// probe run so the test stays meaningful if the learner's work profile
// shifts: it scans a few cut fractions and requires at least one to land
// mid-run (partial theory non-empty, run actually interrupted).
func TestDifferentialCancelResume(t *testing.T) {
	task := smallTask(t)
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 1}
	ctx := context.Background()

	probe, err := testkit.Run(ctx, task, opts, "probe")
	if err != nil {
		t.Fatal(err)
	}
	total := probe.Snapshot.Counters["bottom.constructions"]
	if probe.Clauses < 2 || total < 4 {
		t.Fatalf("probe run too small to cut meaningfully: %d clauses, %d constructions", probe.Clauses, total)
	}

	// Almost all constructions happen inside the first clause's beam
	// search (negative scoring builds the whole BC cache); later clauses
	// only construct their own seed. Scan cut points from the tail of the
	// run backwards to find one that lands between kept clauses.
	ran := false
	for _, after := range []int{int(total), int(total) - 1, int(total) - 2, int(total) - 4, int(total) / 2} {
		rep, err := testkit.CancelResume(ctx, task, opts, after, &probe)
		if err != nil {
			// This cut landed before the first kept clause or after the run's
			// work ended; try the next one.
			t.Logf("cancelAfter=%d: %v", after, err)
			continue
		}
		ran = true
		for _, d := range rep.Diffs {
			t.Errorf("cancelAfter=%d: %s", after, d)
		}
		if !rep.Partial.Cancelled || rep.Partial.TimedOut {
			t.Errorf("cancelAfter=%d: partial leg flags wrong: cancelled=%v timedOut=%v",
				after, rep.Partial.Cancelled, rep.Partial.TimedOut)
		}
	}
	if !ran {
		t.Fatal("no cut fraction produced a mid-run cancellation; adjust the task or fractions")
	}
}
