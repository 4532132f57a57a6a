// Chaos differential tests for distributed coverage: a sharded run —
// under retries, dead replicas, and a fully lost fleet — must
// produce the same theory and the same decision-driving deterministic
// counters as a single-process run. Faults are injected at
// exact, named hit windows (internal/faultpoint), so every leg is
// reproducible; the multi-process variant (real processes, real kill -9)
// lives in shard_smoke_test.go.
//
// Counter scope: learn.*, ind.* and eval.* counters must match the
// reference exactly — they record the learner's decisions. Placement
// counters (bottom.*, coverage.bc_built) legitimately move to the
// workers in a distributed run and are compared only among distributed
// legs, where the full DeterministicDiff must be empty.
package autobias_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	autobias "repro"
	"repro/internal/faultpoint"
	"repro/internal/testkit"
)

// localReference learns the task single-process, sequentially — what a
// distributed run is bit-identical to.
func localReference(t *testing.T, ctx context.Context, task autobias.Task, opts autobias.Options) testkit.Leg {
	t.Helper()
	opts.Workers = 1
	ref, err := testkit.Run(ctx, task, opts, "reference(w=1)")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Clauses == 0 {
		t.Fatal("reference learned no clauses; the comparison is vacuous")
	}
	return ref
}

// diffVsReference compares a distributed leg against the local reference:
// bit-identical theory, and exact agreement on every learner-decision
// counter (learn.*, ind.*, eval.*).
func diffVsReference(ref, leg testkit.Leg) []string {
	var diffs []string
	if leg.Theory != ref.Theory {
		diffs = append(diffs, fmt.Sprintf("%s vs %s: theories diverge:\n--- %s\n%s\n--- %s\n%s",
			ref.Label, leg.Label, ref.Label, ref.Theory, leg.Label, leg.Theory))
	}
	for name, want := range ref.Snapshot.Counters {
		if !strings.HasPrefix(name, "learn.") && !strings.HasPrefix(name, "ind.") && !strings.HasPrefix(name, "eval.") {
			continue
		}
		if got := leg.Snapshot.Counters[name]; got != want {
			diffs = append(diffs, fmt.Sprintf("%s vs %s: counter %s: %d != %d", ref.Label, leg.Label, name, got, want))
		}
	}
	return diffs
}

// TestShardDifferential is the acceptance check for the distributed
// merge contract (DESIGN.md §13): a 4-shard run under injected RPC
// failures and dead workers learns a theory
// bit-identical to the single-process reference, at every
// coordinator worker count, with every recovery recorded in
// Result.Report and none of the exact recoveries marking the run
// degraded.
func TestShardDifferential(t *testing.T) {
	task := smallTask(t)
	base := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1}
	ctx := context.Background()

	ref := localReference(t, ctx, task, base)

	fleet, err := testkit.StartShardFleet(task, base, [][]string{{"s0"}, {"s1"}, {"s2"}, {"s3"}})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	sharded := func(workers int, mod func(*autobias.ShardOptions)) autobias.Options {
		o := base
		o.Workers = workers
		so := &autobias.ShardOptions{Workers: fleet.URLs}
		if mod != nil {
			mod(so)
		}
		o.Shard = so
		return o
	}

	// Subtests share the package-global fault injector and the fleet's
	// warm caches; they must run sequentially, and each resets its faults.

	t.Run("clean-at-workers-1-4-8", func(t *testing.T) {
		var legs []testkit.Leg
		for _, w := range []int{1, 4, 8} {
			leg, err := testkit.Run(ctx, task, sharded(w, nil), fmt.Sprintf("sharded(w=%d)", w))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diffVsReference(ref, leg) {
				t.Error(d)
			}
			legs = append(legs, leg)
		}
		// Among distributed legs the full deterministic surface must
		// agree — including the placement counters the reference
		// comparison excludes.
		for _, leg := range legs[1:] {
			if leg.Theory != legs[0].Theory {
				t.Errorf("%s vs %s: theories diverge", legs[0].Label, leg.Label)
			}
			for _, d := range legs[0].Snapshot.DeterministicDiff(leg.Snapshot) {
				t.Errorf("%s vs %s: %s", legs[0].Label, leg.Label, d)
			}
		}
	})

	t.Run("aleph-at-workers-1-4", func(t *testing.T) {
		// The top-down search runs under the same covering loop (DESIGN.md
		// §21), so it shards like the bottom-up one: a fleet built for
		// MethodAleph, a scoring cap small enough that the run draws its
		// samples from the RNG, and the sharded theory and held-out
		// verdicts must be the local run's.
		ds, err := autobias.GenerateDataset("uw", 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		task := autobias.TaskFromDataset(ds)
		heldPos, heldNeg := task.Pos[24:], task.Neg[60:]
		task.Pos, task.Neg = task.Pos[:24], task.Neg[:60]
		opts := autobias.Options{Method: autobias.MethodAleph, Seed: 1, EvalSampleCap: 20}
		ref := localReference(t, ctx, task, opts)
		fleet, err := testkit.StartShardFleet(task, opts, [][]string{{"a0"}, {"a1"}})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		for _, w := range []int{1, 4} {
			o := opts
			o.Workers = w
			o.Shard = &autobias.ShardOptions{Workers: fleet.URLs}
			leg, err := testkit.Run(ctx, task, o, fmt.Sprintf("sharded-aleph(w=%d)", w))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diffVsReference(ref, leg) {
				t.Error(d)
			}
			if leg.Snapshot.Gauges["shard.rpc_sent"] == 0 {
				t.Errorf("%s sent no coverage RPC: the fleet was not used", leg.Label)
			}
			for _, e := range append(append([]autobias.Example(nil), heldPos...), heldNeg...) {
				want, err := ref.Result.Covers(e)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := leg.Result.Covers(e); err != nil || got != want {
					t.Errorf("%s: held-out %v: covered=%v err=%v, local run says %v", leg.Label, e, got, err, want)
				}
			}
		}
	})

	t.Run("batch-faults-retry", func(t *testing.T) {
		defer faultpoint.Reset()
		// Faults on the batch-specific wire site: the 2nd and 3rd batched
		// sends to shard 3 fail; the retry ladder resolves them with no
		// effect on the theory or the deterministic counters.
		faultpoint.Enable("shard.rpc.batch:3", faultpoint.Fault{Err: fmt.Errorf("injected batch failure"), After: 2, Times: 2})
		leg, err := testkit.Run(ctx, task, sharded(4, nil), "sharded(batch-faults)")
		if err != nil {
			t.Fatal(err)
		}
		if faultpoint.Hits("shard.rpc.batch:3") < 2 {
			t.Fatalf("batch faultpoint fired %d times; the v2 path was not exercised", faultpoint.Hits("shard.rpc.batch:3"))
		}
		for _, d := range diffVsReference(ref, leg) {
			t.Error(d)
		}
		rep := leg.Result.Report
		if rep.Count(autobias.DegradationShardRetried) == 0 {
			t.Error("no ShardRetried event recorded for injected batch failures")
		}
		if leg.Result.Degraded() {
			t.Errorf("retried batch RPCs must not degrade the run: %s", rep.Summary())
		}
	})

	t.Run("send-faults-retry", func(t *testing.T) {
		defer faultpoint.Reset()
		// The 2nd and 3rd sends to shard 2 fail; the retry ladder (3
		// attempts, backoff) resolves them against the same replica.
		faultpoint.Enable("shard.rpc.send:2", faultpoint.Fault{Err: fmt.Errorf("injected send failure"), After: 2, Times: 2})
		leg, err := testkit.Run(ctx, task, sharded(4, nil), "sharded(send-faults)")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diffVsReference(ref, leg) {
			t.Error(d)
		}
		rep := leg.Result.Report
		if rep.Count(autobias.DegradationShardRetried) == 0 {
			t.Error("no ShardRetried event recorded for injected send failures")
		}
		if leg.Result.Degraded() {
			t.Errorf("retried RPCs must not degrade the run: %s", rep.Summary())
		}
		if leg.Snapshot.Gauges["shard.rpc_retried"] == 0 {
			t.Error("shard.rpc_retried gauge is zero")
		}
	})

	t.Run("recv-fault-retry", func(t *testing.T) {
		defer faultpoint.Reset()
		faultpoint.Enable("shard.rpc.recv:1", faultpoint.Fault{Err: fmt.Errorf("injected recv failure"), After: 1, Times: 1})
		leg, err := testkit.Run(ctx, task, sharded(4, nil), "sharded(recv-fault)")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diffVsReference(ref, leg) {
			t.Error(d)
		}
		if leg.Result.Report.Count(autobias.DegradationShardRetried) == 0 {
			t.Error("no ShardRetried event recorded for injected recv failure")
		}
	})

	t.Run("dead-shard-resolves-locally", func(t *testing.T) {
		defer faultpoint.Reset()
		// Shard 1's only replica dies for the whole run; its examples
		// resolve in-process with no effect on the result.
		faultpoint.Enable("shard.crash:s1", faultpoint.Fault{Err: fmt.Errorf("injected worker crash")})
		leg, err := testkit.Run(ctx, task, sharded(4, func(so *autobias.ShardOptions) { so.Retries = 1 }), "sharded(dead-shard)")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diffVsReference(ref, leg) {
			t.Error(d)
		}
		if leg.Result.Degraded() {
			t.Errorf("local fallback must not degrade the run: %s", leg.Result.Report.Summary())
		}
		if leg.Snapshot.Gauges["shard.fallback_local"] == 0 {
			t.Error("shard.fallback_local gauge is zero")
		}
	})

	t.Run("dead-first-replica", func(t *testing.T) {
		defer faultpoint.Reset()
		// Shard 0's first replica dies for the whole run: the first count's
		// retry lands on the second replica, and every later count starts
		// there — one retry in the whole run, no local fallback.
		fleet, err := testkit.StartShardFleet(task, base, [][]string{{"h0a", "h0b"}, {"h1a", "h1b"}})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		faultpoint.Enable("shard.crash:h0a", faultpoint.Fault{Err: fmt.Errorf("injected replica crash")})
		o := base
		o.Workers = 4
		o.Shard = &autobias.ShardOptions{Workers: fleet.URLs}
		leg, err := testkit.Run(ctx, task, o, "sharded(dead-first-replica)")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diffVsReference(ref, leg) {
			t.Error(d)
		}
		if n := leg.Snapshot.Gauges["shard.fallback_local"]; n != 0 {
			t.Errorf("shard.fallback_local = %d, want 0: the second replica was alive", n)
		}
		if n := leg.Snapshot.Gauges["shard.rpc_retried"]; n != 1 {
			t.Errorf("shard.rpc_retried = %d, want exactly 1", n)
		}
		if leg.Result.Degraded() {
			t.Errorf("a retried RPC must not degrade the run: %s", leg.Result.Report.Summary())
		}
	})

	t.Run("fleet-dead-falls-back-local", func(t *testing.T) {
		defer faultpoint.Reset()
		// Every worker dies: the whole computation degrades to in-process
		// — slower, still exact, recorded as ShardFellBackLocal.
		faultpoint.Enable("shard.crash", faultpoint.Fault{Err: fmt.Errorf("injected fleet death")})
		leg, err := testkit.Run(ctx, task, sharded(4, func(so *autobias.ShardOptions) { so.Retries = 1 }), "sharded(fleet-dead)")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diffVsReference(ref, leg) {
			t.Error(d)
		}
		rep := leg.Result.Report
		if rep.Count(autobias.DegradationShardFellBackLocal) == 0 {
			t.Error("no ShardFellBackLocal event recorded")
		}
		if leg.Result.Degraded() {
			t.Errorf("local fallback is exact and must not degrade the run: %s", rep.Summary())
		}
		if leg.Snapshot.Gauges["shard.fallback_local"] == 0 {
			t.Error("shard.fallback_local gauge is zero")
		}
	})

	t.Run("total-loss-degrades-gracefully", func(t *testing.T) {
		defer faultpoint.Reset()
		// Every worker dead AND local fallback disabled: the run must take
		// the anytime exit — a valid (possibly empty) partial theory,
		// Cancelled, ShardLost recorded, Degraded — not a hard error.
		faultpoint.Enable("shard.crash", faultpoint.Fault{Err: fmt.Errorf("injected fleet death")})
		leg, err := testkit.Run(ctx, task, sharded(4, func(so *autobias.ShardOptions) {
			so.Retries = 1
			so.DisableLocalFallback = true
		}), "sharded(total-loss)")
		if err != nil {
			t.Fatal(err)
		}
		if !leg.Cancelled {
			t.Error("total shard loss did not take the graceful cancellation path")
		}
		rep := leg.Result.Report
		if rep.Count(autobias.DegradationShardLost) == 0 {
			t.Error("no ShardLost event recorded")
		}
		if rep.Count(autobias.DegradationCoverageAbandoned) == 0 {
			t.Error("no CoverageAbandoned event recorded")
		}
		if !leg.Result.Degraded() {
			t.Error("total shard loss must mark the run degraded")
		}
	})
}

// TestShardCrashResume verifies the distributed anytime contract end to
// end (see testkit.ShardCrashResume): the fleet dies mid-run with
// fallback disabled, the partial theory plus a resumed run stitches to
// the uninterrupted reference bit for bit.
func TestShardCrashResume(t *testing.T) {
	task := smallTask(t)
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1, Workers: 1}
	ctx := context.Background()
	layout := [][]string{{"c0"}, {"c1"}}

	ref, err := testkit.Run(ctx, task, opts, "reference")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Clauses < 2 {
		t.Fatalf("reference learned %d clauses; need >= 2 for a meaningful mid-run crash", ref.Clauses)
	}

	// Probe the clean distributed run's RPC-send count with a fault that
	// counts hits but never fires, then scan crash points from the tail.
	fleet, err := testkit.StartShardFleet(task, opts, layout)
	if err != nil {
		t.Fatal(err)
	}
	probeOpts := opts
	probeOpts.Shard = &autobias.ShardOptions{Workers: fleet.URLs}
	faultpoint.Enable("shard.rpc.send", faultpoint.Fault{After: 1 << 30})
	probe, err := testkit.Run(ctx, task, probeOpts, "sharded(probe)")
	total := faultpoint.Hits("shard.rpc.send")
	faultpoint.Reset()
	fleet.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffVsReference(ref, probe) {
		t.Error(d)
	}
	if total < 4 {
		t.Fatalf("probe run sent only %d coverage RPCs; too small to crash meaningfully", total)
	}

	ran := false
	for _, after := range []int{total, total - 1, total - 2, total - 4, total / 2} {
		rep, err := testkit.ShardCrashResume(ctx, task, opts, layout, after, &ref)
		if err != nil {
			// This crash point landed before the first kept clause or after
			// the run's last send; try the next one.
			t.Logf("crashAfter=%d: %v", after, err)
			continue
		}
		ran = true
		for _, d := range rep.Diffs {
			t.Errorf("crashAfter=%d: %s", after, d)
		}
	}
	if !ran {
		t.Fatal("no crash point produced a mid-run fleet loss; adjust the task or crash points")
	}
}
