// Command serve runs the inference server: it loads model artifacts
// saved by `autobias -save-model`, rebinds each to its training data
// (regenerated datasets or CSV directories), and answers point and
// batch classification over HTTP/JSON with the verdict semantics the
// models were trained under (see internal/serve).
//
// Usage:
//
//	autobias -dataset uw -save-model models/uw.model
//	serve -models ./models -addr :8080
//	curl localhost:8080/v1/models
//	curl -X POST localhost:8080/v1/models/uw/predict \
//	     -d '{"tuples": [["stud_0001","prof_0002"]]}'
//
// Endpoints: GET /healthz (liveness: the process is up), GET /readyz
// (readiness: 503 + Retry-After while draining or mid-reload — route
// traffic on this one), GET /metrics (JSON snapshot), GET /v1/models,
// GET /v1/models/{name}, POST /v1/models/{name}/predict, POST
// /admin/reload, and /debug/pprof/ — all on one port.
//
// Hot reload: SIGHUP or POST /admin/reload re-scans -models and swaps
// changed artifacts in with zero downtime (the old version drains its
// in-flight requests, new requests land on the new version). Unchanged
// artifacts are skipped by checksum; a bad artifact keeps its last good
// version serving.
//
// Memory: each model keeps one cache, its verdict memo (-memo-limit). A
// memo miss builds the example's ground bottom clause, checks the theory
// against it and drops it, so a model's memory does not grow with the
// examples it has served.
//
// SIGINT/SIGTERM drains gracefully: in-flight requests finish (bounded
// by -drain-timeout), then the process exits 0.
//
// Exit codes: 0 clean drain, 1 error, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	autobias "repro"
	"repro/internal/cli"
	"repro/internal/serve"
)

func main() {
	modelsDir := flag.String("models", "", "directory of *.model artifacts (required)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "per-request coverage worker pool (0 = all CPUs; verdicts are identical at any setting)")
	csvDir := flag.String("csv", "", "override artifact CSV data paths with this directory")
	maxConcurrent := flag.Int("max-concurrent", 64, "maximum in-flight predict requests across all models")
	maxBatch := flag.Int("max-batch", 4096, "maximum examples per predict request (larger batches get 413)")
	modelConcurrency := flag.Int("model-concurrency", 32, "per-model concurrent predict budget; excess is shed with 503 (0 = unlimited)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	memoLimit := flag.Int("memo-limit", 0, "per-model verdict memo entries per generation (0 = default 65536)")
	metricsOut := flag.String("metrics", "", "write the final metrics snapshot to this JSON file on shutdown")
	flag.Parse()

	if *modelsDir == "" {
		fmt.Fprintln(os.Stderr, "serve: -models is required")
		flag.Usage()
		os.Exit(2)
	}

	// The collector is always on: it backs the live /metrics endpoint.
	mc := autobias.NewMetricsCollector()
	ctx, stop := cli.NotifyContext()
	defer stop()

	opts := serve.Options{
		Workers:          *workers,
		MemoLimit:        *memoLimit,
		ModelConcurrency: *modelConcurrency,
		Metrics:          mc,
	}
	resolve := serve.DefaultResolver(*csvDir)
	reg, err := serve.LoadDir(ctx, *modelsDir, resolve, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	for _, name := range reg.Names() {
		m, _ := reg.Get(name)
		art := m.Artifact()
		note := ""
		if art.Degraded {
			note = " [degraded: training run was interrupted; the theory is its partial result]"
		}
		fmt.Printf("loaded %s: %s(%s), %d clauses%s\n",
			name, art.Target, strings.Join(art.TargetAttrs, ","), m.Definition().Len(), note)
	}

	// reload is shared by SIGHUP and POST /admin/reload; the mutex keeps
	// concurrent triggers from binding the same artifact twice.
	var reloadMu sync.Mutex
	reload := func(ctx context.Context) (*serve.ReloadReport, error) {
		reloadMu.Lock()
		defer reloadMu.Unlock()
		rep, err := serve.ReloadDir(ctx, reg, *modelsDir, resolve, opts)
		if err != nil {
			return nil, err
		}
		for name, msg := range rep.Failed {
			fmt.Fprintf(os.Stderr, "serve: reload %s: %s (previous version keeps serving)\n", name, msg)
		}
		fmt.Printf("serve: reload: %d swapped, %d added, %d unchanged, %d failed\n",
			len(rep.Swapped), len(rep.Added), len(rep.Unchanged), len(rep.Failed))
		return rep, nil
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				if _, err := reload(ctx); err != nil {
					fmt.Fprintln(os.Stderr, "serve: reload:", err)
				}
			}
		}
	}()

	srv := serve.NewServer(reg, serve.ServerOptions{
		MaxConcurrent:  *maxConcurrent,
		MaxBatch:       *maxBatch,
		RequestTimeout: *requestTimeout,
		DrainTimeout:   *drainTimeout,
		Reload:         reload,
		Metrics:        mc,
	})
	fmt.Printf("serving %d model(s) on %s\n", reg.Len(), *addr)
	err = srv.ListenAndServe(ctx, *addr)
	if werr := cli.WriteMetrics(mc, *metricsOut); werr != nil {
		fmt.Fprintln(os.Stderr, "serve:", werr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	fmt.Println("serve: drained cleanly")
}
