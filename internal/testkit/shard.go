package testkit

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"time"

	autobias "repro"
	"repro/internal/faultpoint"
	"repro/internal/report"
)

// ShardFleet is a set of in-process shard workers booted for one
// learning problem: real HTTP servers (httptest) wrapping real worker
// engines, addressable by the coordinator exactly like out-of-process
// workers — minus the process boundary, which the multi-process smoke
// test covers separately.
type ShardFleet struct {
	// URLs is per-shard coordinator addressing, replicas joined with '|'
	// — pass it straight to autobias.ShardOptions.Workers.
	URLs    []string
	servers []*httptest.Server
}

// Close shuts every worker down.
func (f *ShardFleet) Close() {
	for _, s := range f.servers {
		s.Close()
	}
}

// StartShardFleet boots one in-process worker per id in layout, where
// layout[i] holds shard i's replica ids (e.g. [][]string{{"s0a","s0b"},
// {"s1"}} is two shards, the first with two replicas). Every worker is
// built from the same task and options the coordinating run will use,
// as the fingerprint contract requires.
func StartShardFleet(task autobias.Task, opts autobias.Options, layout [][]string) (*ShardFleet, error) {
	f := &ShardFleet{}
	for _, ids := range layout {
		entry := ""
		for j, id := range ids {
			w, err := autobias.NewShardWorker(task, opts, id, autobias.ShardWorkerOptions{})
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("testkit: shard worker %s: %w", id, err)
			}
			s := httptest.NewServer(w.Handler())
			f.servers = append(f.servers, s)
			if j > 0 {
				entry += "|"
			}
			entry += s.URL
		}
		f.URLs = append(f.URLs, entry)
	}
	return f, nil
}

// errShardCrash is the injected worker-death error for crash legs. It
// deliberately does not wrap a context error: a crashed worker must
// look like infrastructure failure, not like the run being cancelled.
var errShardCrash = errors.New("testkit: injected shard crash")

// ShardCrashResume verifies the distributed anytime contract: a
// distributed run whose entire fleet dies mid-flight — with local
// fallback disabled, so the loss is unrecoverable — must degrade
// gracefully to a valid partial theory (Cancelled, ShardLost and
// CoverageAbandoned recorded), and a resumed run over the positives
// that partial theory left uncovered must stitch to the uninterrupted
// reference bit for bit.
//
// The reference is a single-process run: that is what a distributed
// run is bit-identical to. The fleet dies deterministically: the
// crashAfter-th coverage RPC send — and every send after it — fails, so
// wherever the covering loop is at that point, its next coverage count
// runs out of attempts and aborts the run.
//
// ref, when non-nil, is a previously-computed reference leg of
// the same (task, opts) — callers scanning several crash points pass it
// to avoid re-learning the reference each time.
//
// Like CancelResume, the helper arms package-global fault injection and
// requires len(task.Pos) < 10.
func ShardCrashResume(ctx context.Context, task autobias.Task, opts autobias.Options, layout [][]string, crashAfter int, ref *Leg) (CancelResumeReport, error) {
	if len(task.Pos) >= 10 {
		return CancelResumeReport{}, fmt.Errorf("testkit: shard-crash-resume needs < 10 positives, got %d", len(task.Pos))
	}
	if crashAfter < 2 {
		return CancelResumeReport{}, fmt.Errorf("testkit: crashAfter must be >= 2, got %d", crashAfter)
	}
	if opts.Shard != nil {
		return CancelResumeReport{}, fmt.Errorf("testkit: pass the fleet via layout; opts.Shard is set by the helper")
	}

	rep := CancelResumeReport{}
	var err error
	if ref != nil {
		rep.Reference = *ref
	} else {
		rep.Reference, err = Run(ctx, task, opts, "reference")
		if err != nil {
			return rep, err
		}
	}

	fleet, err := StartShardFleet(task, opts, layout)
	if err != nil {
		return rep, err
	}
	defer fleet.Close()

	crashOpts := opts
	crashOpts.Shard = &autobias.ShardOptions{
		Workers:              fleet.URLs,
		Retries:              1,
		RequestTimeout:       5 * time.Second,
		DisableLocalFallback: true,
	}
	// From the crashAfter-th send on, every coverage RPC fails — the
	// fleet is gone for good, and with fallback disabled the run must
	// take the anytime exit.
	faultpoint.Enable("shard.rpc.send", faultpoint.Fault{Err: errShardCrash, After: crashAfter})
	rep.Partial, err = Run(ctx, task, crashOpts, "shard-crashed")
	faultpoint.Reset()
	if err != nil {
		return rep, err
	}
	if !rep.Partial.Cancelled {
		return rep, fmt.Errorf("testkit: crash leg was not interrupted (crashAfter=%d beyond the run's sends?)", crashAfter)
	}
	if rep.Partial.Clauses == 0 {
		return rep, fmt.Errorf("testkit: crash leg learned no clauses before the fleet died (crashAfter=%d too early)", crashAfter)
	}
	r := rep.Partial.Result.Report
	if r.Count(report.ShardLost) == 0 {
		rep.Diffs = append(rep.Diffs, "crash leg recorded no ShardLost event")
	}
	if r.Count(report.CoverageAbandoned) == 0 {
		rep.Diffs = append(rep.Diffs, "crash leg recorded no CoverageAbandoned event")
	}
	if !r.Degraded() {
		rep.Diffs = append(rep.Diffs, "crash leg does not report Degraded despite losing its shards")
	}

	// Resume single-process (the fleet is "gone"), over the positives the
	// partial theory left uncovered.
	var remaining []autobias.Example
	for _, e := range task.Pos {
		ok, err := rep.Partial.Result.Covers(e)
		if err != nil {
			return rep, fmt.Errorf("testkit: scoring partial theory: %w", err)
		}
		if !ok {
			remaining = append(remaining, e)
		}
	}
	resumeTask := task
	resumeTask.Pos = remaining
	if len(remaining) == 0 {
		rep.Resumed = Leg{Label: "resumed", Snapshot: autobias.MetricsSnapshot{}}
	} else {
		rep.Resumed, err = Run(ctx, resumeTask, opts, "resumed")
		if err != nil {
			return rep, err
		}
	}

	rep.Stitched = stitch(rep.Partial.Theory, rep.Resumed.Theory)
	if rep.Stitched != rep.Reference.Theory {
		rep.Diffs = append(rep.Diffs, fmt.Sprintf("stitched theory diverges from reference:\n--- reference\n%s\n--- stitched (fleet died after %d sends + resumed over %d positives)\n%s",
			rep.Reference.Theory, crashAfter, len(remaining), rep.Stitched))
	}
	if got, want := rep.Partial.Clauses+rep.Resumed.Clauses, rep.Reference.Clauses; got != want {
		rep.Diffs = append(rep.Diffs, fmt.Sprintf("kept-clause totals diverge: partial %d + resumed %d != reference %d",
			rep.Partial.Clauses, rep.Resumed.Clauses, want))
	}
	return rep, nil
}
