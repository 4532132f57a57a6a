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
// processes that are allowed to fail: RPCs retry with backoff across a
// shard's replicas, and a shard whose retries run out is computed
// in-process for the rest of the run — the learned theory is
// bit-identical to a single-process run throughout. See DESIGN.md §13.
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
	"repro/internal/cli"
)

func main() {
	tf := cli.RegisterTask(flag.CommandLine)
	lf := cli.RegisterLearn(flag.CommandLine)
	timeout := flag.Duration("timeout", 0, "learning budget (0 = unlimited)")
	metricsOut := flag.String("metrics", "", "write run instrumentation (counters, histograms, spans) to this JSON file")
	saveModel := flag.String("save-model", "", "write the learned model as a serving artifact (theory, bias, engine configuration) to this file; serve it with cmd/serve")
	shards := flag.String("shards", "", "distribute coverage testing across shard workers (cmd/shardworker): comma-separated base URLs, one per shard, replicas of a shard separated by '|'")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-RPC timeout with -shards (0 = 10s)")
	shardRetries := flag.Int("shard-retries", 0, "RPC attempt budget per shard per count with -shards, across its replicas (0 = 3)")
	shardNoFallback := flag.Bool("shard-no-fallback", false, "with -shards: abort to the partial theory instead of computing a lost shard's examples in-process")
	flag.Parse()

	task, err := tf.Task()
	if err != nil {
		fmt.Fprintln(os.Stderr, "autobias:", err)
		os.Exit(1)
	}
	opts, err := lf.Options(tf.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autobias:", err)
		os.Exit(2)
	}
	opts.Timeout = *timeout
	if *shards != "" {
		opts.Shard = &autobias.ShardOptions{
			Workers:              strings.Split(*shards, ","),
			RequestTimeout:       *shardTimeout,
			Retries:              *shardRetries,
			DisableLocalFallback: *shardNoFallback,
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
		lf.Method, opts.Sampling, res.Bias.Size(), res.BiasTime.Round(time.Millisecond),
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
		if err := res.SaveModel(*saveModel, task, tf.DataRef()); err != nil {
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
