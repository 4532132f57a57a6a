// Command ingest runs a live learner: it generates (or loads) a
// dataset, learns an initial theory, then accepts tuple inserts and
// deletes over HTTP and incrementally repairs the theory after every
// committed batch — emitting a new versioned model artifact that a
// serving process (cmd/serve) hot-swaps via its reload path.
//
// Usage:
//
//	ingest -dataset uw -models ./models -addr :8081
//	curl -X POST localhost:8081/ingest -d '{"mutations":[
//	     {"op":"insert","relation":"publication","tuple":["title_9","prof_0002"]}]}'
//	curl localhost:8081/status
//
// Endpoints: POST /ingest (one JSON batch, committed atomically),
// POST /ingest/stream (NDJSON mutations, committed in bounded batches),
// GET /version (current data version), GET /status (data version,
// theory size, repair history) and the shared admin surface (GET
// /metrics, /healthz, /readyz, /debug/pprof/) — all on one port. Every commit triggers an incremental
// repair (full re-learn when the refreshed bias drifted), so /status
// and the artifact on disk always reflect the latest committed data.
//
// Exit codes: 0 clean shutdown, 1 error, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	autobias "repro"
	"repro/internal/cli"
	"repro/internal/httpx"
)

func main() {
	dataset := flag.String("dataset", "", "generated dataset to learn over (uw, hiv, imdb, flt, sys; required unless -csv)")
	scale := flag.Float64("scale", 0, "dataset scale factor (0 = default size)")
	seed := flag.Int64("seed", 1, "dataset and learning seed")
	csvDir := flag.String("csv", "", "load the database from this CSV directory instead of generating")
	target := flag.String("target", "", "target relation (required with -csv)")
	modelsDir := flag.String("models", "", "write versioned model artifacts to this directory (optional)")
	addr := flag.String("addr", ":8081", "listen address")
	workers := flag.Int("workers", 0, "coverage worker pool (0 = all CPUs; theories are identical at any setting)")
	maxConcurrent := flag.Int("max-concurrent", 16, "maximum in-flight ingest requests")
	streamBatch := flag.Int("stream-batch", 512, "mutations per streamed commit")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	metricsOut := flag.String("metrics", "", "write the final metrics snapshot to this JSON file on shutdown")
	flag.Parse()

	if err := run(dataset, scale, seed, csvDir, target, modelsDir, addr, workers,
		maxConcurrent, streamBatch, drainTimeout, metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "ingest:", err)
		os.Exit(1)
	}
}

func run(dataset *string, scale *float64, seed *int64, csvDir, target, modelsDir, addr *string,
	workers, maxConcurrent, streamBatch *int, drainTimeout *time.Duration, metricsOut *string) error {
	mc := autobias.NewMetricsCollector()
	ctx, stop := cli.NotifyContext()
	defer stop()

	if *modelsDir != "" {
		if err := os.MkdirAll(*modelsDir, 0o755); err != nil {
			return err
		}
	}

	var task autobias.Task
	name := *dataset
	var data autobias.ModelDataRef
	switch {
	case *dataset != "":
		ds, err := autobias.GenerateDataset(*dataset, *scale, *seed)
		if err != nil {
			return err
		}
		task = autobias.TaskFromDataset(ds)
		data = autobias.ModelDataRef{Dataset: *dataset, Scale: *scale, Seed: *seed}
	case *csvDir != "":
		if *target == "" {
			fmt.Fprintln(os.Stderr, "ingest: -csv needs -target")
			flag.Usage()
			os.Exit(2)
		}
		d, err := autobias.LoadCSVDir(*csvDir)
		if err != nil {
			return err
		}
		rel := d.Relation(*target)
		if rel == nil {
			return fmt.Errorf("unknown target relation %q", *target)
		}
		task = autobias.Task{DB: d, Target: *target, TargetAttrs: rel.Schema.Attributes}
		name = *target
		data = autobias.ModelDataRef{CSVDir: *csvDir}
	default:
		fmt.Fprintln(os.Stderr, "ingest: one of -dataset or -csv is required")
		flag.Usage()
		os.Exit(2)
	}

	opts := autobias.Options{
		Seed:      *seed,
		Workers:   *workers,
		Collector: mc,
	}

	fmt.Printf("ingest: learning initial theory for %s...\n", name)
	res, err := autobias.LearnCtx(ctx, task, opts)
	if err != nil {
		return err
	}
	fmt.Printf("ingest: learned %d clause(s) at data version %d\n", res.Clauses, task.DB.Version())

	// live guards the mutable learner state: the current result and the
	// repair history. Commits arrive serialized (one batch at a time
	// through the ingestor), but /status reads race them.
	var live struct {
		sync.Mutex
		res     *autobias.Result
		repairs int
		full    int
		lastErr string
	}
	live.res = res

	saveArtifact := func(r *autobias.Result) {
		if *modelsDir == "" {
			return
		}
		path := filepath.Join(*modelsDir, name+".model")
		if err := r.SaveModel(path, task, data); err != nil {
			fmt.Fprintln(os.Stderr, "ingest: save model:", err)
			return
		}
		fmt.Printf("ingest: wrote %s (data version %d)\n", path, task.DB.Version())
	}
	saveArtifact(res)

	ing := autobias.NewIngestor(task.DB, mc)
	srv := autobias.NewIngestServer(ing, *maxConcurrent)
	srv.StreamBatch = *streamBatch
	srv.OnCommit = func(c autobias.IngestCommit) {
		live.Lock()
		defer live.Unlock()
		rep, err := autobias.RepairCtx(ctx, live.res, task, c, opts)
		if err != nil {
			live.lastErr = err.Error()
			fmt.Fprintln(os.Stderr, "ingest: repair:", err)
			return
		}
		live.res = rep.Result
		live.repairs++
		if rep.FullRelearn {
			live.full++
		}
		fmt.Printf("ingest: v%d: %d dirty, %d invalidated, %d carried hits, %s%s\n",
			c.Version, rep.DirtyExamples, len(rep.InvalidatedClauses), rep.CarriedHits,
			rep.Elapsed.Round(time.Millisecond), repairNote(rep))
		if !rep.Unchanged {
			saveArtifact(rep.Result)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	httpx.MountAdmin(mux, mc, nil, nil)
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		live.Lock()
		defer live.Unlock()
		httpx.WriteJSON(w, http.StatusOK, map[string]any{
			"data_version": task.DB.Version(),
			"clauses":      live.res.Clauses,
			"repairs":      live.repairs,
			"full_relearn": live.full,
			"last_error":   live.lastErr,
		})
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("ingest: accepting mutations on %s\n", ln.Addr())
	err = httpx.Serve(ctx, ln, mux, *drainTimeout, nil)
	if werr := cli.WriteMetrics(mc, *metricsOut); werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	fmt.Println("ingest: drained cleanly")
	return nil
}

func repairNote(rep *autobias.Repair) string {
	switch {
	case rep.Unchanged:
		return " (unchanged)"
	case rep.FullRelearn:
		return " (full re-learn: bias drift)"
	}
	return ""
}
