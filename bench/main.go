// Command bench is the repository's end-to-end benchmark: four workloads
// that drive the system through its public functions, print every metric
// by name with its unit, and check the outputs. README.md has the
// workloads, the metrics and which layer should move which; BENCHMARK.json
// at the root of the repository is the contract a driver reads.
//
//	bash bench/run.sh --workload table5 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var cfg config
	var traceFlag int
	var recordPath string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "one of table5, table6, sharded-learn, live-loop")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "the measuring time the run is sized for: it fixes the number of passes")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics and writes the span file; 0 reports the end-to-end metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for the span file and temporary model artifacts")
	flag.StringVar(&recordPath, "record", "", "append the result as one JSON line to this file, for --compare")
	flag.BoolVar(&compare, "compare", false, "compare two --record files: bench --compare a.jsonl b.jsonl")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench --compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	cfg.trace = traceFlag != 0
	// The container has two cores; a larger host is capped so that the
	// numbers of different hosts stay comparable in kind.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if recordPath != "" {
		if err := record(recordPath, cfg, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns its result line. An error that
// ends the workload early has already been counted as a failed operation;
// the metrics gathered until then are still printed.
func execute(cfg config) (result, error) {
	r := newRun(cfg)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		r.op("create "+cfg.outDir, err)
		return r.finish(), err
	}
	var err error
	switch cfg.workload {
	case "table5":
		err = r.runTable5()
	case "table6":
		err = r.runTable6()
	case "sharded-learn":
		err = r.runSharded()
	case "live-loop":
		err = r.runLive()
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
		r.op("select workload", err)
	}
	r.tr.closeOpen()
	if cfg.trace {
		r.finishLayers()
	}
	return r.finish(), err
}
