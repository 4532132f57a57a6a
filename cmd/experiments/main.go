// Command experiments regenerates the paper's evaluation tables:
//
//	Table 5 — Prec/Recall/FM/Time of five methods of setting language
//	          bias (Castor, No const., Manual, Aleph, AutoBias) on five
//	          datasets, under k-fold cross validation.
//	Table 6 — FM/Time of the three BC sampling techniques (Naïve, Random,
//	          Stratified) with the AutoBias bias.
//
// Runs are budgeted: a method that exhausts -timeout on a fold is
// reported with a ">" time and "-" metrics, the way the paper reports
// its kernel-killed and >10h baselines. The paper's full protocol
// (scale 1, 10-fold CV, 5 repetitions of Table 6) is the default; use
// -quick for a minutes-scale pass.
//
// Usage:
//
//	experiments -table 5
//	experiments -table 6 -quick
//	experiments -table all -md EXPERIMENTS_DATA.md
//	experiments -quick -metrics run-metrics.json
//	experiments -http localhost:6060     # live /metrics JSON, /healthz, /debug/pprof/
//
// Exit codes: 0 success, 1 error, 3 interrupted (Ctrl-C) — the rows
// produced so far were printed; per-fold budget exhaustion is part of
// the protocol (the ">" rows) and does not change the exit code.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	autobias "repro"
	"repro/internal/cli"
	"repro/internal/httpx"
)

type config struct {
	scale   float64
	seed    int64
	folds   int // 0 = paper protocol: 10-fold, 5 for UW
	reps    int // Table 6 repetitions for random/stratified
	timeout time.Duration
	workers int // coverage + CV fold parallelism (0 = all CPUs)
	// shard, when non-nil, distributes coverage testing across shard
	// workers (Table 5's AutoBias column and Table 6: the fleet is
	// started from one bias, and the config fingerprint covers it).
	shard *autobias.ShardOptions
	// mc, when non-nil, accumulates instrumentation across every cell of
	// the sweep (one collector for the whole run; concurrent folds record
	// into it safely).
	mc *autobias.MetricsCollector
}

func main() {
	table := flag.String("table", "all", "which table to regenerate: 5, 6, all")
	quick := flag.Bool("quick", false, "minutes-scale settings (scale 0.3, 3 folds, 2 reps, 15s budget)")
	scale := flag.Float64("scale", 1, "dataset scale factor")
	seed := flag.Int64("seed", 1, "seed")
	folds := flag.Int("folds", 0, "cross-validation folds (0 = paper protocol)")
	reps := flag.Int("reps", 5, "Table 6 repetitions for random/stratified sampling")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-fold learning budget")
	workers := flag.Int("workers", 0, "worker pool for coverage tests and concurrent CV folds (0 = all CPUs, 1 = sequential; results are identical at any setting)")
	mdPath := flag.String("md", "", "also append the tables to this markdown file")
	datasets := flag.String("datasets", "", "comma-separated subset of datasets (default: all)")
	metricsOut := flag.String("metrics", "", "write sweep instrumentation (counters, histograms, spans) to this JSON file")
	httpAddr := flag.String("http", "", "serve /metrics (live collector snapshot as JSON) and /debug/pprof/ on this address")
	shards := flag.String("shards", "", "distribute the AutoBias column's coverage testing across shard workers (cmd/shardworker): comma-separated base URLs, replicas separated by '|'; the fleet must be started from the same single dataset the sweep runs (use -datasets) and matching seed/options")
	flag.Parse()

	cfg := config{scale: *scale, seed: *seed, folds: *folds, reps: *reps, timeout: *timeout, workers: *workers}
	if *shards != "" {
		cfg.shard = &autobias.ShardOptions{Workers: strings.Split(*shards, ",")}
	}
	if *quick {
		cfg.scale, cfg.folds, cfg.reps, cfg.timeout = 0.3, 3, 2, 15*time.Second
	}
	if *metricsOut != "" || *httpAddr != "" {
		cfg.mc = autobias.NewMetricsCollector()
	}
	// Ctrl-C or SIGTERM interrupts the sweep mid-primitive; in-flight
	// folds return their partial theories, completed rows stay printed.
	ctx, stop := cli.NotifyContext()
	defer stop()
	if *httpAddr != "" {
		serveDebug(ctx, *httpAddr, cfg.mc)
	}

	names := autobias.DatasetNames()
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}

	var out io.Writer = os.Stdout
	if *mdPath != "" {
		f, err := os.OpenFile(*mdPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	if *table == "5" || *table == "all" {
		if err := runTable5(ctx, out, names, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *table == "6" || *table == "all" {
		if err := runTable6(ctx, out, names, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if err := cli.WriteMetrics(cfg.mc, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; tables above are partial")
		os.Exit(3)
	}
}

// serveDebug exposes the shared admin surface (httpx.MountAdmin: the
// live collector as /metrics, /healthz, /readyz, /debug/pprof/) on addr
// in a background goroutine until ctx ends. The server is best-effort
// observability: a bind failure warns and the sweep proceeds.
func serveDebug(ctx context.Context, addr string, mc *autobias.MetricsCollector) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: debug server:", err)
		return
	}
	mux := http.NewServeMux()
	httpx.MountAdmin(mux, mc, nil, nil)
	go func() {
		if err := httpx.Serve(ctx, ln, mux, 0, nil); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: debug server:", err)
		}
	}()
}

func foldsFor(cfg config, dataset string, nPos int) int {
	if cfg.folds > 0 {
		return cfg.folds
	}
	// Paper protocol: 10-fold CV, 5-fold for UW due to its size.
	if dataset == "uw" {
		return 5
	}
	if k := 10; nPos >= k {
		return k
	}
	return 2
}

type cell struct {
	m        autobias.Metrics
	t        time.Duration
	timedOut bool
}

func (c cell) metric(name string) string {
	if c.timedOut {
		return "-"
	}
	switch name {
	case "Prec.":
		return fmt.Sprintf("%.2f", c.m.Precision)
	case "Recall":
		return fmt.Sprintf("%.2f", c.m.Recall)
	case "FM":
		return fmt.Sprintf("%.2f", c.m.F1)
	}
	return "?"
}

func (c cell) time(budget time.Duration) string {
	if c.timedOut {
		return ">" + budget.Round(time.Second).String()
	}
	return c.t.Round(10 * time.Millisecond).String()
}

func runCell(ctx context.Context, task autobias.Task, opts autobias.Options, k int) (cell, error) {
	cv, err := autobias.CrossValidateCtx(ctx, task, opts, k)
	if err != nil {
		return cell{}, err
	}
	return cell{
		m:        autobias.Metrics{Precision: cv.Precision, Recall: cv.Recall, F1: cv.F1},
		t:        cv.MeanTime,
		timedOut: cv.TimedOut,
	}, nil
}

// runTable5 reproduces Table 5: five bias-setting methods per dataset.
func runTable5(ctx context.Context, out io.Writer, names []string, cfg config) error {
	methods := autobias.Methods()
	fmt.Fprintf(out, "\n## Table 5: methods of setting language bias (scale=%.2f, budget=%v)\n\n", cfg.scale, cfg.timeout)
	header := "| Data | Measure |"
	rule := "|---|---|"
	for _, m := range methods {
		header += " " + methodLabel(m) + " |"
		rule += "---|"
	}
	fmt.Fprintln(out, header)
	fmt.Fprintln(out, rule)

	for _, name := range names {
		ds, err := autobias.GenerateDataset(name, cfg.scale, cfg.seed)
		if err != nil {
			return err
		}
		task := autobias.TaskFromDataset(ds)
		k := foldsFor(cfg, name, len(task.Pos))
		// Preprocess INDs once per dataset, as the paper does (§6.1).
		indStart := time.Now()
		_, _, inds, err := autobias.InduceBias(task, autobias.Options{Collector: cfg.mc})
		if err != nil {
			return err
		}
		indTime := time.Since(indStart)

		cells := make([]cell, len(methods))
		for i, m := range methods {
			opts := autobias.Options{Method: m, Timeout: cfg.timeout, Seed: cfg.seed, Workers: cfg.workers, Collector: cfg.mc}
			if m == autobias.MethodAutoBias {
				opts.INDs = inds
				// Only the AutoBias column can use the fleet: the config
				// fingerprint covers the bias text, and cmd/shardworker
				// builds the autobias bias by default.
				opts.Shard = cfg.shard
			}
			c, err := runCell(ctx, task, opts, k)
			if err != nil {
				return err
			}
			cells[i] = c
			fmt.Fprintf(os.Stderr, "table5 %s/%s done (%v)\n", name, m, c.t.Round(time.Millisecond))
		}
		for _, measure := range []string{"Prec.", "Recall", "FM", "Time"} {
			row := fmt.Sprintf("| %s | %s |", strings.ToUpper(name), measure)
			for _, c := range cells {
				if measure == "Time" {
					row += " " + c.time(cfg.timeout) + " |"
				} else {
					row += " " + c.metric(measure) + " |"
				}
			}
			fmt.Fprintln(out, row)
		}
		fmt.Fprintf(out, "| %s | IND prep | %v | | | | |\n", strings.ToUpper(name), indTime.Round(time.Millisecond))
	}
	return nil
}

// runTable6 reproduces Table 6: sampling techniques under the AutoBias
// bias, with random/stratified averaged over cfg.reps runs.
func runTable6(ctx context.Context, out io.Writer, names []string, cfg config) error {
	strategies := []autobias.Sampling{autobias.SamplingNaive, autobias.SamplingRandom, autobias.SamplingStratified}
	fmt.Fprintf(out, "\n## Table 6: sampling techniques (scale=%.2f, reps=%d, budget=%v)\n\n", cfg.scale, cfg.reps, cfg.timeout)
	fmt.Fprintln(out, "| Data | Measure | Naive | Random | Stratified |")
	fmt.Fprintln(out, "|---|---|---|---|---|")

	for _, name := range names {
		ds, err := autobias.GenerateDataset(name, cfg.scale, cfg.seed)
		if err != nil {
			return err
		}
		task := autobias.TaskFromDataset(ds)
		k := foldsFor(cfg, name, len(task.Pos))
		_, _, inds, err := autobias.InduceBias(task, autobias.Options{Collector: cfg.mc})
		if err != nil {
			return err
		}

		cells := make([]cell, len(strategies))
		for i, strat := range strategies {
			reps := 1
			if strat != autobias.SamplingNaive {
				reps = cfg.reps // the paper averages 5 runs of random/stratified
			}
			var agg cell
			for r := 0; r < reps; r++ {
				opts := autobias.Options{
					Method:    autobias.MethodAutoBias,
					Sampling:  strat,
					Timeout:   cfg.timeout,
					Seed:      cfg.seed + int64(r),
					INDs:      inds,
					Workers:   cfg.workers,
					Collector: cfg.mc,
				}
				c, err := runCell(ctx, task, opts, k)
				if err != nil {
					return err
				}
				agg.m.F1 += c.m.F1
				agg.t += c.t
				agg.timedOut = agg.timedOut || c.timedOut
			}
			agg.m.F1 /= float64(reps)
			agg.t /= time.Duration(reps)
			cells[i] = agg
			fmt.Fprintf(os.Stderr, "table6 %s/%s done (%v)\n", name, strat, cells[i].t.Round(time.Millisecond))
		}
		for _, measure := range []string{"FM", "Time"} {
			row := fmt.Sprintf("| %s | %s |", strings.ToUpper(name), measure)
			for _, c := range cells {
				if measure == "Time" {
					row += " " + c.time(cfg.timeout) + " |"
				} else {
					row += " " + c.metric("FM") + " |"
				}
			}
			fmt.Fprintln(out, row)
		}
	}
	return nil
}

func methodLabel(m autobias.Method) string {
	switch m {
	case autobias.MethodCastor:
		return "Castor"
	case autobias.MethodNoConst:
		return "No const."
	case autobias.MethodManual:
		return "Manual"
	case autobias.MethodAleph:
		return "Aleph"
	case autobias.MethodAutoBias:
		return "AutoBias"
	}
	return string(m)
}
