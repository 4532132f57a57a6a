// Command autobias learns a Horn definition of a target relation, end to
// end: generate (or load) a database, build the language bias with the
// chosen method, learn with the sequential-covering bottom-up learner
// (or FOIL for -method aleph), and report the definition with its
// training metrics.
//
// Usage:
//
//	autobias -dataset uw                         # AutoBias, default options
//	autobias -dataset flt -method manual         # expert bias
//	autobias -dataset hiv -sampling random       # §4.2 sampling
//	autobias -csv ./data -target t -attrs a,b -pos pos.txt -neg neg.txt
//	autobias -dataset uw -shards http://h1:7001,http://h2:7002
//	                                             # coverage on shard workers
//
// With -shards, the hot loop (coverage testing) runs on cmd/shardworker
// processes that are allowed to fail: RPCs retry with backoff, lost
// shards fail over to survivors, and a fully lost fleet degrades to
// in-process computation — the learned theory is bit-identical to a
// single-process run throughout. See DESIGN.md §13.
//
// The -pos/-neg files hold one ground fact per line, e.g.
// "advisedBy(juan,sarita)".
//
// Exit codes: 0 success, 1 error, 2 usage error, 3 degraded success — the
// run timed out (-timeout) or was interrupted (Ctrl-C) and printed the
// partial definition learned so far.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	autobias "repro"
	"repro/internal/bottom"
	"repro/internal/cli"
)

func main() {
	dataset := flag.String("dataset", "", "generated dataset: uw, hiv, imdb, flt, sys")
	scale := flag.Float64("scale", 1, "dataset scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	csvDir := flag.String("csv", "", "load database from a directory of <relation>.csv files")
	target := flag.String("target", "", "target relation name (with -csv)")
	attrs := flag.String("attrs", "", "comma-separated target attribute names (with -csv)")
	posFile := flag.String("pos", "", "file of positive examples (with -csv)")
	negFile := flag.String("neg", "", "file of negative examples (with -csv)")
	method := flag.String("method", "autobias", "castor, noconst, manual, aleph, autobias")
	sampling := flag.String("sampling", "naive", "naive, random, stratified")
	depth := flag.Int("depth", 2, "bottom-clause construction depth d")
	sampleSize := flag.Int("s", 20, "sample size s (tuples per mode/stratum)")
	timeout := flag.Duration("timeout", 0, "learning budget (0 = unlimited)")
	workers := flag.Int("workers", 0, "coverage-test worker pool size (0 = all CPUs, 1 = sequential; results are identical at any setting)")
	metricsOut := flag.String("metrics", "", "write run instrumentation (counters, histograms, spans) to this JSON file")
	saveModel := flag.String("save-model", "", "write the learned model as a serving artifact (theory, bias, engine configuration) to this file; serve it with cmd/serve")
	shards := flag.String("shards", "", "distribute coverage testing across shard workers (cmd/shardworker): comma-separated base URLs, one per shard, replicas of a shard separated by '|'")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-RPC timeout with -shards (0 = 10s)")
	shardRetries := flag.Int("shard-retries", 0, "RPC attempt budget per shard with -shards (0 = 3)")
	shardHedge := flag.Duration("shard-hedge", 0, "duplicate straggling shard RPCs to a second replica after this delay (0 = off)")
	shardNoFallback := flag.Bool("shard-no-fallback", false, "with -shards: abort to the partial theory instead of computing a lost shard's examples in-process")
	shardBatchClauses := flag.Int("shard-batch-clauses", 0, "with -shards: max frontier clauses per wire batch (0 = 256)")
	flag.Parse()

	task, err := cli.BuildTask(*dataset, *scale, *seed, *csvDir, *target, *attrs, *posFile, *negFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autobias:", err)
		os.Exit(1)
	}
	strat, err := bottom.ParseStrategy(*sampling)
	if err != nil {
		fmt.Fprintf(os.Stderr, "autobias: unknown sampling %q\n", *sampling)
		os.Exit(2)
	}
	opts := autobias.Options{
		Method:     autobias.Method(*method),
		Sampling:   strat,
		Depth:      *depth,
		SampleSize: *sampleSize,
		Timeout:    *timeout,
		Seed:       *seed,
		Workers:    *workers,
	}
	if *shards != "" {
		opts.Shard = &autobias.ShardOptions{
			Workers:              strings.Split(*shards, ","),
			RequestTimeout:       *shardTimeout,
			Retries:              *shardRetries,
			HedgeDelay:           *shardHedge,
			DisableLocalFallback: *shardNoFallback,
			BatchClauses:         *shardBatchClauses,
		}
	}
	var mc *autobias.MetricsCollector
	if *metricsOut != "" {
		mc = autobias.NewMetricsCollector()
		opts.Collector = mc
	}
	// Ctrl-C or SIGTERM cancels the run mid-primitive; the partial
	// definition learned so far is still printed (anytime semantics).
	ctx, stop := cli.NotifyContext()
	defer stop()
	res, err := autobias.LearnCtx(ctx, task, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autobias:", err)
		os.Exit(1)
	}
	fmt.Printf("%% method=%s sampling=%s bias=%d defs biasTime=%v learnTime=%v clauses=%d\n",
		*method, strat, res.Bias.Size(), res.BiasTime.Round(time.Millisecond),
		res.Elapsed.Round(time.Millisecond), res.Clauses)
	if res.Definition.Len() == 0 {
		fmt.Println("% no definition learned")
	} else {
		fmt.Println(res.Definition)
	}
	m, err := res.Evaluate(task.Pos, task.Neg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autobias:", err)
		os.Exit(1)
	}
	fmt.Printf("%% training metrics: precision=%.2f recall=%.2f f1=%.2f\n", m.Precision, m.Recall, m.F1)
	if *saveModel != "" {
		ref := autobias.ModelDataRef{CSVDir: *csvDir}
		if *dataset != "" {
			ref = autobias.ModelDataRef{Dataset: *dataset, Scale: *scale, Seed: *seed}
		}
		if err := res.SaveModel(*saveModel, task, ref); err != nil {
			fmt.Fprintln(os.Stderr, "autobias:", err)
			os.Exit(1)
		}
		fmt.Printf("%% model saved to %s\n", *saveModel)
	}
	// Snapshot after Evaluate so eval.examples_scored is included.
	if err := cli.WriteMetrics(mc, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "autobias:", err)
		os.Exit(1)
	}
	if code := reportDegradation(os.Stderr, "autobias", res.TimedOut, res.Cancelled, res.Report); code != 0 {
		os.Exit(code)
	}
}

// reportDegradation prints a one-line summary of a timed-out/cancelled
// run and returns exit code 3, or 0 for a clean run. Shared convention
// across the cmd/ binaries: 0 ok, 1 error, 2 usage, 3 degraded.
func reportDegradation(w *os.File, prog string, timedOut, cancelled bool, rep *autobias.Report) int {
	if !timedOut && !cancelled {
		return 0
	}
	why := "cancelled"
	if timedOut {
		why = "timed out"
	}
	fmt.Fprintf(w, "%s: %s; partial results above [%s]\n", prog, why, rep.Summary())
	return 3
}
