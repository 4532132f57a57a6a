//go:build stress

// Stress suite (ISSUE: schema-independence stress harness). Build-tagged
// so tier-1 stays fast:
//
//	go test -tags stress -run TestStress -race .
//
// STRESS_SCALE scales every workload (default 1.0 = full size, ~1M
// generated tuples); CI sets a small value on pull requests and runs
// full-size on main. The suite covers the volume axis the unit tests
// cannot: million-tuple streamed generation, the Olken/stratified
// samplers over a database two orders of magnitude beyond the golden
// scale, and the shard coordinator serving a fleet at volume.
package autobias_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	autobias "repro"
	"repro/internal/bottom"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/testkit"
)

// stressScale reads the STRESS_SCALE multiplier (default 1.0).
func stressScale(t *testing.T) float64 {
	t.Helper()
	v := os.Getenv("STRESS_SCALE")
	if v == "" {
		return 1.0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f <= 0 {
		t.Fatalf("invalid STRESS_SCALE=%q: %v", v, err)
	}
	return f
}

// TestStressMillionTupleStream validates the memory-bounded generation
// path at the million-tuple mark: IMDb streamed straight to CSV files,
// then every file's line count reconciled against the writer's row
// accounting (a divergence would mean rows were silently dropped or
// duplicated on the way to disk).
func TestStressMillionTupleStream(t *testing.T) {
	mult := stressScale(t)
	// IMDb yields ~40k tuples per unit scale; 26 units crosses 1M.
	scale := 26.0 * mult
	dir := t.TempDir()

	var w *db.CSVStreamWriter
	var names []string
	_, err := datagen.GenerateTo("imdb", datagen.Config{Scale: scale, Seed: 7},
		func(s *db.Schema) (datagen.TupleSink, error) {
			names = s.Names()
			var err error
			w, err = db.NewCSVStreamWriter(dir, s)
			return w, err
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	total := w.TotalRows()
	t.Logf("streamed %d tuples across %d relations at scale %g", total, len(names), scale)
	if mult >= 1 && total < 1_000_000 {
		t.Errorf("full-scale run streamed %d tuples, want >= 1M", total)
	}

	var onDisk int64
	for _, name := range names {
		lines, err := countLines(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := lines-1, w.Rows(name); got != want {
			t.Errorf("%s.csv: %d data rows on disk, writer accounted %d", name, got, want)
		}
		onDisk += lines - 1
	}
	if onDisk != total {
		t.Errorf("%d rows on disk, writer accounted %d", onDisk, total)
	}
}

// countLines streams a file counting newlines, never holding more than
// the scanner buffer — the reconciliation itself must stay
// memory-bounded or the test would defeat its own point.
func countLines(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var n int64
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		chunk, err := r.ReadSlice('\n')
		if len(chunk) > 0 && chunk[len(chunk)-1] == '\n' {
			n++
		}
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				continue
			}
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
	}
}

// TestStressSamplersAtVolume runs the Olken-style random and the
// stratified bottom-clause samplers over an HIV database ~40x the
// golden-test scale and checks the determinism contract holds at
// volume: two builders with the same seed produce bit-identical bottom
// clauses for every probed example.
func TestStressSamplersAtVolume(t *testing.T) {
	mult := stressScale(t)
	ds, err := autobias.GenerateDataset("hiv", 4.0*mult, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hiv at scale %g: %d tuples", 4.0*mult, ds.DB.TotalTuples())
	compiled, err := ds.Manual.Compile(ds.DB.Schema(), ds.Target, len(ds.TargetAttrs))
	if err != nil {
		t.Fatal(err)
	}
	probes := ds.Pos
	if len(probes) > 15 {
		probes = probes[:15]
	}
	for _, strat := range []struct {
		name string
		s    bottom.Strategy
	}{
		{"olken-random", bottom.Random},
		{"stratified", bottom.Stratified},
	} {
		strat := strat
		t.Run(strat.name, func(t *testing.T) {
			opts := bottom.Options{Strategy: strat.s, Seed: 11}
			first := bottom.NewBuilder(ds.DB, compiled, opts)
			second := bottom.NewBuilder(ds.DB, compiled, opts)
			for i, e := range probes {
				a, err := first.Construct(e)
				if err != nil {
					t.Fatal(err)
				}
				b, err := second.Construct(e)
				if err != nil {
					t.Fatal(err)
				}
				if len(a.Body) == 0 {
					t.Errorf("probe %d: empty bottom clause", i)
				}
				if a.String() != b.String() {
					t.Errorf("probe %d: same-seed builders diverge at volume:\n--- first\n%s\n--- second\n%s",
						i, a.String(), b.String())
				}
			}
		})
	}
}

// TestStressStreamedIngest replays a million-tuple dataset through the
// ingestion subsystem in bounded batches into an initially empty,
// indexed database and requires the destination's index and statistics
// digest to be byte-identical to the cold-loaded reference — incremental
// index maintenance at volume must converge to exactly the state a bulk
// load produces, with the data version counting the committed batches.
func TestStressStreamedIngest(t *testing.T) {
	mult := stressScale(t)
	scale := 26.0 * mult // IMDb yields ~40k tuples per unit scale.
	ds, err := autobias.GenerateDataset("imdb", scale, 7)
	if err != nil {
		t.Fatal(err)
	}
	cold := ds.DB
	cold.BuildIndexes()
	total := cold.TotalTuples()
	t.Logf("imdb at scale %g: %d tuples", scale, total)
	if mult >= 1 && total < 1_000_000 {
		t.Errorf("full-scale run generated %d tuples, want >= 1M", total)
	}

	// Indexes built before the first commit, as a live store's are: every
	// batch then maintains them incrementally (base + delta, with merges).
	live := db.New(cold.Schema())
	live.BuildIndexes()
	ing := autobias.NewIngestor(live, autobias.NewMetricsCollector())
	ctx := context.Background()
	const batchSize = 1 << 16
	var batch []autobias.IngestMutation
	var batches uint64
	flush := func() {
		if len(batch) == 0 {
			return
		}
		commit, err := ing.Apply(ctx, autobias.IngestBatch{Mutations: batch})
		if err != nil {
			t.Fatal(err)
		}
		batches++
		if commit.Version != batches || commit.Inserted != len(batch) {
			t.Fatalf("batch %d: unexpected commit %+v", batches, commit)
		}
		batch = batch[:0]
	}
	for _, name := range cold.Schema().Names() {
		for _, row := range cold.Relation(name).Snapshot() {
			batch = append(batch, autobias.IngestMutation{Op: autobias.IngestInsert, Relation: name, Tuple: row})
			if len(batch) == batchSize {
				flush()
			}
		}
	}
	flush()
	t.Logf("applied %d tuples across %d batches", total, batches)

	if got, want := live.TotalTuples(), total; got != want {
		t.Errorf("streamed database holds %d tuples, cold load holds %d", got, want)
	}
	if live.Version() != batches {
		t.Errorf("data version %d after %d committed batches", live.Version(), batches)
	}
	if got, want := live.IndexDigest(), cold.IndexDigest(); got != want {
		t.Errorf("streamed index/stats digest diverges from cold load:\n--- streamed\n%s\n--- cold\n%s", got, want)
	}
}

// TestStressShardCoordinator drives the shard coordinator against an
// in-process fleet of four single-replica workers over a scaled-up FLT
// dataset and requires the distributed theory to be bit-identical to
// the local reference — the determinism contract under
// volume, not just under the unit-test toy sizes.
func TestStressShardCoordinator(t *testing.T) {
	mult := stressScale(t)
	ds, err := autobias.GenerateDataset("flt", 3.0*mult, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flt at scale %g: %d tuples", 3.0*mult, ds.DB.TotalTuples())
	task := autobias.TaskFromDataset(ds)
	if len(task.Pos) > 12 {
		task.Pos = task.Pos[:12]
	}
	if len(task.Neg) > 60 {
		task.Neg = task.Neg[:60]
	}
	opts := autobias.Options{
		Method: autobias.MethodManual,
		Seed:   1,
	}
	ctx := context.Background()
	local, err := testkit.Run(ctx, task, opts, "local")
	if err != nil {
		t.Fatal(err)
	}
	if local.Clauses == 0 {
		t.Fatal("local reference learned nothing; the comparison is vacuous")
	}

	fleet, err := testkit.StartShardFleet(task, opts, [][]string{{"s0"}, {"s1"}, {"s2"}, {"s3"}})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	shOpts := opts
	shOpts.Shard = &autobias.ShardOptions{Workers: fleet.URLs}
	sharded, err := testkit.Run(ctx, task, shOpts, "sharded")
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Theory != local.Theory {
		t.Errorf("sharded theory diverges from local reference:\n--- local\n%s\n--- sharded\n%s",
			local.Theory, sharded.Theory)
	}
}
