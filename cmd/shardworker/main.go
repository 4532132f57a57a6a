// Command shardworker runs one shard-worker process for a distributed
// learning run: a coverage engine behind HTTP, answering the
// coordinator's coverage RPCs (POST /v2/coverage, one batched candidate
// frontier per request) plus /healthz (liveness), /readyz
// (readiness, for operators and load balancers; 503 while a -preload
// warm-up is compiling ground BCs) and /metrics.
//
// Every worker must be started from the same task and learning options
// as the coordinating run — it rebuilds the same bias and engine
// configuration from them, and a config fingerprint on every RPC
// enforces the parity (mismatch answers 409). Workers are stateless
// apart from warm caches: killing one mid-run costs retries and local
// computation, never correctness.
//
// Usage:
//
//	shardworker -dataset uw -id w1 -addr :7001
//	shardworker -dataset uw -id w2 -addr :7002
//	autobias    -dataset uw -shards http://localhost:7001,http://localhost:7002
//
// The actual listen address is printed on stdout (useful with -addr :0).
// SIGINT/SIGTERM drains gracefully: /readyz flips to 503, in-flight
// requests finish, then the process exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	autobias "repro"
	"repro/internal/cli"
)

func main() {
	tf := cli.RegisterTask(flag.CommandLine)
	lf := cli.RegisterLearn(flag.CommandLine)
	id := flag.String("id", "", "worker id reported in health/readiness payloads (default: the listen address)")
	addr := flag.String("addr", ":0", "listen address (use :0 for an ephemeral port; the actual address is printed)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request coverage budget")
	maxConcurrent := flag.Int("max-concurrent", 0, "in-flight request cap (0 = 64); excess sheds 503 + Retry-After")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	preload := flag.Bool("preload", false, "compile ground bottom clauses for this worker's owned example range at startup; /readyz answers 503 until the warm-up finishes")
	shardIndex := flag.Int("shard-index", -1, "with -preload: this worker's shard index (0-based); preloads only examples hashing to it")
	shardCount := flag.Int("shard-count", 0, "with -preload: total shard count of the fleet; 0 or 1 preloads every example")
	flag.Parse()

	task, err := tf.Task()
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardworker:", err)
		os.Exit(1)
	}
	opts, err := lf.Options(tf.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardworker:", err)
		os.Exit(2)
	}
	opts.Metrics = true
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardworker:", err)
		os.Exit(1)
	}
	if *id == "" {
		*id = ln.Addr().String()
	}
	worker, err := autobias.NewShardWorker(task, opts, *id, autobias.ShardWorkerOptions{
		MaxConcurrent:  *maxConcurrent,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardworker:", err)
		os.Exit(1)
	}
	fmt.Printf("shardworker %s listening on http://%s fingerprint=%s\n", *id, ln.Addr(), worker.Fingerprint())
	ctx, stop := cli.NotifyContext()
	defer stop()
	if *preload {
		// Warm the ground-BC cache for this worker's owned range while the
		// listener is already accepting: /readyz answers 503 until the
		// warm-up finishes, so coordinators wait instead of paying
		// first-request compile latency.
		worker.BeginPreload()
		go func() {
			examples := append(append([]autobias.Example(nil), task.Pos...), task.Neg...)
			n, err := worker.Preload(ctx, examples, *shardIndex, *shardCount)
			if err != nil {
				fmt.Fprintf(os.Stderr, "shardworker %s: preload aborted after %d BCs: %v\n", *id, n, err)
				return
			}
			fmt.Printf("shardworker %s preloaded %d ground BCs\n", *id, n)
		}()
	}
	if err := worker.Serve(ctx, ln); err != nil {
		fmt.Fprintln(os.Stderr, "shardworker:", err)
		os.Exit(1)
	}
}
