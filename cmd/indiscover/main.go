// Command indiscover runs Binder-style unary IND discovery (§3.1) over a
// generated dataset or a directory of CSV files, printing the exact and
// approximate dependencies with their error rates and the preprocessing
// wall-clock the paper reports in §6.1.
//
// Usage:
//
//	indiscover -dataset imdb
//	indiscover -csv ./mydata -approx 0.5
//
// Exit codes: 0 success, 1 error, 2 usage error, 3 interrupted (Ctrl-C;
// no partial INDs are printed — half-validated inclusion counts would
// report spurious dependencies).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	autobias "repro"
	"repro/internal/cli"
)

func main() {
	dataset := flag.String("dataset", "", "dataset: uw, hiv, imdb, flt, sys")
	csvDir := flag.String("csv", "", "load database from a directory of <relation>.csv files")
	scale := flag.Float64("scale", 1, "dataset scale factor")
	seed := flag.Int64("seed", 1, "generation seed")
	approx := flag.Float64("approx", 0.5, "approximate-IND error cutoff α (0 = exact only)")
	metricsOut := flag.String("metrics", "", "write discovery instrumentation (candidate counters, error-rate histogram, span) to this JSON file")
	flag.Parse()

	var d *autobias.Database
	label := *dataset
	switch {
	case *csvDir != "":
		loaded, err := autobias.LoadCSVDir(*csvDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "indiscover:", err)
			os.Exit(1)
		}
		d = loaded
		label = *csvDir
	case *dataset != "":
		ds, err := autobias.GenerateDataset(*dataset, *scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "indiscover:", err)
			os.Exit(1)
		}
		d = ds.DB
	default:
		fmt.Fprintln(os.Stderr, "indiscover: need -dataset or -csv")
		os.Exit(2)
	}

	var mc *autobias.MetricsCollector
	if *metricsOut != "" {
		mc = autobias.NewMetricsCollector()
	}
	ctx, stop := cli.NotifyContext()
	defer stop()
	start := time.Now()
	inds, err := autobias.DiscoverINDs(ctx, d, *approx, mc)
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "indiscover: interrupted after %v; discovery aborted\n", elapsed.Round(time.Millisecond))
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "indiscover:", err)
		os.Exit(1)
	}

	exact := 0
	for _, i := range inds {
		if i.IsExact() {
			exact++
		}
	}
	fmt.Printf("%s: %d tuples, %d INDs (%d exact, %d approximate ≤ %.2f) in %v\n",
		label, d.TotalTuples(), len(inds), exact, len(inds)-exact, *approx, elapsed.Round(time.Millisecond))
	for _, i := range inds {
		fmt.Println(" ", i)
	}
	if err := cli.WriteMetrics(mc, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "indiscover:", err)
		os.Exit(1)
	}
}
