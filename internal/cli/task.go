package cli

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	autobias "repro"
	"repro/internal/bottom"
)

// TaskFlags is the -dataset / -csv flag family: the learning task a run
// reads, either a generated benchmark dataset or a CSV directory with an
// explicit target signature and example files. cmd/autobias,
// cmd/shardworker and cmd/ingest register it from this one declaration,
// so a coordinator, its workers and a live learner cannot read the same
// flags differently.
type TaskFlags struct {
	Dataset string
	Scale   float64
	Seed    int64
	CSVDir  string
	Target  string
	Attrs   string
	PosFile string
	NegFile string
}

// RegisterTask declares the task family on fs.
func RegisterTask(fs *flag.FlagSet) *TaskFlags {
	f := &TaskFlags{}
	fs.StringVar(&f.Dataset, "dataset", "", "generated dataset: uw, hiv, imdb, flt, sys")
	fs.Float64Var(&f.Scale, "scale", 1, "dataset scale factor")
	fs.Int64Var(&f.Seed, "seed", 1, "dataset and learning seed (a coordinating run and its shard workers must agree)")
	fs.StringVar(&f.CSVDir, "csv", "", "load the database from a directory of <relation>.csv files instead of generating")
	fs.StringVar(&f.Target, "target", "", "target relation name (with -csv)")
	fs.StringVar(&f.Attrs, "attrs", "", "comma-separated target attribute names (with -csv)")
	fs.StringVar(&f.PosFile, "pos", "", "file of positive examples (with -csv)")
	fs.StringVar(&f.NegFile, "neg", "", "file of negative examples (with -csv)")
	return f
}

// Task assembles the task the flags describe.
func (f *TaskFlags) Task() (autobias.Task, error) {
	if f.Dataset != "" {
		ds, err := autobias.GenerateDataset(f.Dataset, f.Scale, f.Seed)
		if err != nil {
			return autobias.Task{}, err
		}
		return autobias.TaskFromDataset(ds), nil
	}
	if f.CSVDir == "" {
		return autobias.Task{}, fmt.Errorf("need -dataset or -csv (with -target, -attrs, -pos, -neg)")
	}
	if f.Target == "" || f.Attrs == "" || f.PosFile == "" || f.NegFile == "" {
		return autobias.Task{}, fmt.Errorf("-csv needs -target, -attrs, -pos and -neg")
	}
	d, err := autobias.LoadCSVDir(f.CSVDir)
	if err != nil {
		return autobias.Task{}, err
	}
	pos, err := ReadExamples(f.PosFile)
	if err != nil {
		return autobias.Task{}, err
	}
	neg, err := ReadExamples(f.NegFile)
	if err != nil {
		return autobias.Task{}, err
	}
	return autobias.Task{
		DB:          d,
		Target:      f.Target,
		TargetAttrs: strings.Split(f.Attrs, ","),
		Pos:         pos,
		Neg:         neg,
	}, nil
}

// DataRef names the task's data in a saved model artifact, so a serving
// process can rebind it.
func (f *TaskFlags) DataRef() autobias.ModelDataRef {
	if f.Dataset != "" {
		return autobias.ModelDataRef{Dataset: f.Dataset, Scale: f.Scale, Seed: f.Seed}
	}
	return autobias.ModelDataRef{CSVDir: f.CSVDir}
}

// LearnFlags is the -method / -sampling / -depth / -s / -workers flag
// family: how a run learns. A coordinating run and its shard workers
// register it from this one declaration; their engines must agree on
// everything but -workers, which no verdict depends on.
type LearnFlags struct {
	Method     string
	Sampling   string
	Depth      int
	SampleSize int
	Workers    int
}

// RegisterLearn declares the learning family on fs.
func RegisterLearn(fs *flag.FlagSet) *LearnFlags {
	f := &LearnFlags{}
	fs.StringVar(&f.Method, "method", "autobias", "castor, noconst, manual, aleph, autobias")
	fs.StringVar(&f.Sampling, "sampling", "naive", "naive, random, stratified")
	fs.IntVar(&f.Depth, "depth", 2, "bottom-clause construction depth d")
	fs.IntVar(&f.SampleSize, "s", 20, "sample size s (tuples per mode/stratum)")
	fs.IntVar(&f.Workers, "workers", 0, "coverage-test worker pool size (0 = all CPUs, 1 = sequential; results are identical at any setting)")
	return f
}

// Options builds the learning options the flags describe, under seed
// (the task family's -seed). An unknown -sampling is an error.
func (f *LearnFlags) Options(seed int64) (autobias.Options, error) {
	strat, err := bottom.ParseStrategy(f.Sampling)
	if err != nil {
		return autobias.Options{}, fmt.Errorf("unknown sampling %q", f.Sampling)
	}
	return autobias.Options{
		Method:     autobias.Method(f.Method),
		Sampling:   strat,
		Depth:      f.Depth,
		SampleSize: f.SampleSize,
		Seed:       seed,
		Workers:    f.Workers,
	}, nil
}

// ReadExamples reads one ground fact per line, e.g.
// "advisedBy(juan,sarita)"; blank lines and %-comments are skipped.
func ReadExamples(path string) ([]autobias.Example, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []autobias.Example
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		e, err := autobias.ParseExample(line)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
