package cli

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	autobias "repro"
)

// BuildTask assembles the learning task the -dataset / -csv flag family
// describes: a generated benchmark dataset, or a CSV directory with an
// explicit target signature and example files. cmd/autobias,
// cmd/shardworker and cmd/ingest share it so a coordinator, its workers
// and a live learner cannot load the same flags differently.
func BuildTask(dataset string, scale float64, seed int64, csvDir, target, attrs, posFile, negFile string) (autobias.Task, error) {
	if dataset != "" {
		ds, err := autobias.GenerateDataset(dataset, scale, seed)
		if err != nil {
			return autobias.Task{}, err
		}
		return autobias.TaskFromDataset(ds), nil
	}
	if csvDir == "" {
		return autobias.Task{}, fmt.Errorf("need -dataset or -csv (with -target, -attrs, -pos, -neg)")
	}
	if target == "" || attrs == "" || posFile == "" || negFile == "" {
		return autobias.Task{}, fmt.Errorf("-csv needs -target, -attrs, -pos and -neg")
	}
	d, err := autobias.LoadCSVDir(csvDir)
	if err != nil {
		return autobias.Task{}, err
	}
	pos, err := ReadExamples(posFile)
	if err != nil {
		return autobias.Task{}, err
	}
	neg, err := ReadExamples(negFile)
	if err != nil {
		return autobias.Task{}, err
	}
	return autobias.Task{
		DB:          d,
		Target:      target,
		TargetAttrs: strings.Split(attrs, ","),
		Pos:         pos,
		Neg:         neg,
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
