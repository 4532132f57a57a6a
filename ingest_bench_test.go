// Bench harness for the incremental-repair acceptance point: for a
// small committed batch (≤1% of tuples), RepairCtx must beat a full
// from-scratch re-learn on the post-batch database by ≥5x while
// producing the bit-identical theory. Gated behind INGEST_BENCH=1 so
// tier-1 stays fast; the run appends a measured entry (with the
// benchenv environment block) to BENCH_ingest.json:
//
//	INGEST_BENCH=1 go test -run TestIngestBenchGate -v .
package autobias_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	autobias "repro"
	"repro/internal/benchenv"
)

const ingestBenchPath = "BENCH_ingest.json"

type ingestBenchRun struct {
	Date string `json:"date"`
	benchenv.Env
	Dataset       string  `json:"dataset"`
	Scale         float64 `json:"scale"`
	TotalTuples   int     `json:"total_tuples"`
	BatchTuples   int     `json:"batch_tuples"`
	BatchPct      float64 `json:"batch_pct"`
	Trials        int     `json:"trials"`
	RelearnNs     int64   `json:"relearn_ns"`
	RepairNs      int64   `json:"repair_ns"`
	Speedup       float64 `json:"speedup"`
	DirtyExamples int     `json:"dirty_examples"`
	CarriedHits   int64   `json:"carried_hits"`
	Note          string  `json:"note,omitempty"`
}

// ingestBenchFile keeps every run as raw JSON, so rewriting the file to
// append one cannot drop the fields of entries with another shape (the
// interleaved benchmark pairs).
type ingestBenchFile struct {
	Description string            `json:"description"`
	Runs        []json.RawMessage `json:"runs"`
}

const ingestBenchDescription = "Perf trajectory for incremental theory repair (RepairCtx) versus full re-learn after a small committed ingest batch. Each run learns a theory over the uw dataset, commits an entity-local batch touching <=1% of tuples (new publication tuples about one existing person — the live-data shape where fresh facts arrive about a few entities, perturbing only the examples whose bottom clauses reach them while the induced bias stays stable, so the repair replays under an unchanged bias; every cached example's ground BC is rebuilt and checked, and runs before 2026-10-17 screened out, unchecked, those holding none of the batch's values), then measures min-of-trials wall clock for RepairCtx against a from-scratch LearnCtx on the post-batch database; the repaired theory is asserted bit-identical to the re-learn before timing counts. speedup = relearn_ns / repair_ns; the CI gate (INGEST_BENCH=1, TestIngestBenchGate) fails below 5x. dirty_examples and carried_hits record how much of the previous run's coverage state the repair reused; carried_hits is informational, not gated: the distinct carried (clause, example) verdicts the replay consumed (runs before 2026-09-27 counted a replay per clause pointer, so their figure is higher for the same work). Every entry records the full benchenv.Capture() block. Regenerate with: INGEST_BENCH=1 go test -run TestIngestBenchGate -v . Entries with a \"workload\" field are interleaved parent/change pairs of the repo benchmark (bench/run.sh), not repair-gate runs; their note says what they measure."

// TestIngestBenchGate measures and gates the repair-vs-relearn speedup.
func TestIngestBenchGate(t *testing.T) {
	if os.Getenv("INGEST_BENCH") == "" {
		t.Skip("set INGEST_BENCH=1 to run the ingest bench gate")
	}
	const (
		dataset = "uw"
		scale   = 0.5
		trials  = 3
	)
	ctx := context.Background()
	opts := autobias.Options{Method: autobias.MethodAutoBias, Seed: 1}

	freshTask := func() autobias.Task {
		ds, err := autobias.GenerateDataset(dataset, scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		return autobias.TaskFromDataset(ds)
	}
	task0 := freshTask()
	total := task0.DB.TotalTuples()
	batchN := total / 100 // ≤1% of tuples
	if batchN < 1 {
		batchN = 1
	}
	t.Logf("%s scale=%g: %d tuples, batch of %d (%.2f%%)", dataset, scale, total, batchN, 100*float64(batchN)/float64(total))

	prev, err := autobias.LearnCtx(ctx, task0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Clauses == 0 {
		t.Fatal("initial learn produced no clauses")
	}

	var repairNs, relearnNs int64
	var dirty int
	var carried int64
	for trial := 0; trial < trials; trial++ {
		task := freshTask()
		ing := autobias.NewIngestor(task.DB, nil)
		commit, err := ing.Apply(ctx, entityLocalBatch(t, task, batchN))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := autobias.RepairCtx(ctx, prev, task, commit, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.BiasDrift || rep.Unchanged {
			t.Fatalf("batch did not exercise the replay under a stable bias (drift=%v unchanged=%v); the measurement is meaningless",
				rep.BiasDrift, rep.Unchanged)
		}
		start := time.Now()
		relearn, err := autobias.LearnCtx(ctx, task, opts)
		if err != nil {
			t.Fatal(err)
		}
		rl := time.Since(start)
		if rep.Result.Definition.String() != relearn.Definition.String() {
			t.Fatalf("repaired theory diverges from re-learn; the timing comparison is meaningless")
		}
		if trial == 0 || int64(rep.Elapsed) < repairNs {
			repairNs = int64(rep.Elapsed)
		}
		if trial == 0 || int64(rl) < relearnNs {
			relearnNs = int64(rl)
		}
		dirty, carried = rep.DirtyExamples, rep.CarriedHits
		t.Logf("trial %d: repair=%s relearn=%s dirty=%d carried_hits=%d", trial, rep.Elapsed, rl, dirty, carried)
	}
	speedup := float64(relearnNs) / float64(repairNs)
	t.Logf("min repair=%s min relearn=%s speedup=%.1fx", time.Duration(repairNs), time.Duration(relearnNs), speedup)

	run := ingestBenchRun{
		Date:          time.Now().Format("2006-01-02"),
		Env:           benchenv.Capture(),
		Dataset:       dataset,
		Scale:         scale,
		TotalTuples:   total,
		BatchTuples:   batchN,
		BatchPct:      100 * float64(batchN) / float64(total),
		Trials:        trials,
		RelearnNs:     relearnNs,
		RepairNs:      repairNs,
		Speedup:       speedup,
		DirtyExamples: dirty,
		CarriedHits:   carried,
		Note:          "entity-local batch: new publication tuples (fresh titles) for one existing person",
	}
	file := ingestBenchFile{Description: ingestBenchDescription}
	if raw, err := os.ReadFile(ingestBenchPath); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("existing %s is unreadable: %v", ingestBenchPath, err)
		}
		file.Description = ingestBenchDescription
	}
	raw, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	file.Runs = append(file.Runs, raw)
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ingestBenchPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("appended run to %s", ingestBenchPath)

	if speedup < 5 {
		t.Errorf("repair speedup %.1fx below the 5x acceptance point (repair=%s relearn=%s)",
			speedup, time.Duration(repairNs), time.Duration(relearnNs))
	}
}

// entityLocalBatch builds a batch of n new publication tuples (fresh
// titles) for one existing person — the live-data shape incremental
// repair is built for: new facts arriving about a few entities perturb
// only the examples whose bottom clauses reach those entities, and
// fresh constants in the already-near-unique title attribute leave the
// induced bias stable, so the repair replays under the same bias.
func entityLocalBatch(t *testing.T, task autobias.Task, n int) autobias.IngestBatch {
	t.Helper()
	rel := task.DB.Relation("publication")
	if rel == nil || rel.Len() == 0 {
		t.Fatal("uw dataset is missing the publication relation")
	}
	return entityBatch(rel.Snapshot()[0][1], n)
}
