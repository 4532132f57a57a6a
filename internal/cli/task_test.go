package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	autobias "repro"
	"repro/internal/bottom"
)

// parseFamilies parses args with both flag families registered, as
// cmd/autobias and cmd/shardworker do.
func parseFamilies(t *testing.T, args ...string) (*TaskFlags, *LearnFlags) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	tf, lf := RegisterTask(fs), RegisterLearn(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return tf, lf
}

// TestBuildTaskCSV loads the layout cmd/datasetgen writes — a db/
// directory of <relation>.csv files beside pos.txt and neg.txt — and
// checks the examples arrive with it; a -csv run missing any of -target,
// -attrs, -pos and -neg is refused rather than learned from a guess,
// with the same message as before the families were shared.
func TestBuildTaskCSV(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("db/parent.csv", "par,chi\nann,bob\nbob,cid\nbob,dee\n")
	pos := write("pos.txt", "% grandparents\ngrandparent(ann,cid)\n\ngrandparent(ann,dee)\n")
	neg := write("neg.txt", "grandparent(bob,ann)\n")
	csvDir := filepath.Join(dir, "db")

	full := []string{"-csv", csvDir, "-target", "grandparent", "-attrs", "gp,gc", "-pos", pos, "-neg", neg}
	tf, _ := parseFamilies(t, full...)
	task, err := tf.Task()
	if err != nil {
		t.Fatal(err)
	}
	if task.Target != "grandparent" || strings.Join(task.TargetAttrs, ",") != "gp,gc" {
		t.Errorf("target = %s(%v)", task.Target, task.TargetAttrs)
	}
	if len(task.Pos) != 2 || task.Pos[1].String() != "grandparent(ann,dee)" || len(task.Neg) != 1 {
		t.Errorf("examples = %v / %v, want 2 positives and 1 negative", task.Pos, task.Neg)
	}
	if task.DB.Relation("parent") == nil {
		t.Error("parent relation not loaded")
	}
	if got, want := tf.DataRef(), (autobias.ModelDataRef{CSVDir: csvDir}); got != want {
		t.Errorf("DataRef = %+v, want %+v", got, want)
	}

	const csvNeeds = "-csv needs -target, -attrs, -pos and -neg"
	for i := 2; i < len(full); i += 2 {
		// Drop one of the four -csv companions.
		args := append(slices.Clone(full[:i]), full[i+2:]...)
		tf, _ := parseFamilies(t, args...)
		if _, err := tf.Task(); err == nil || err.Error() != csvNeeds {
			t.Errorf("-csv without %s: err = %v, want %q", full[i], err, csvNeeds)
		}
	}
	tf, _ = parseFamilies(t)
	if _, err := tf.Task(); err == nil || err.Error() != "need -dataset or -csv (with -target, -attrs, -pos, -neg)" {
		t.Errorf("no task flags: err = %v", err)
	}
}

// TestFlagFamiliesBuildTheRun: parsing the shared families yields the
// Task, Options and ModelDataRef that cmd/autobias and cmd/shardworker
// built field by field from their own declarations, defaults included.
func TestFlagFamiliesBuildTheRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ref  autobias.ModelDataRef
		opts autobias.Options
	}{
		{
			args: []string{"-dataset", "hiv"},
			ref:  autobias.ModelDataRef{Dataset: "hiv", Scale: 1, Seed: 1},
			opts: autobias.Options{Method: autobias.MethodAutoBias, Sampling: bottom.Naive, Depth: 2, SampleSize: 20, Seed: 1},
		},
		{
			args: []string{"-dataset", "hiv", "-scale", "0.5", "-seed", "3", "-method", "aleph",
				"-sampling", "stratified", "-depth", "3", "-s", "7", "-workers", "2"},
			ref:  autobias.ModelDataRef{Dataset: "hiv", Scale: 0.5, Seed: 3},
			opts: autobias.Options{Method: autobias.Method("aleph"), Sampling: bottom.Stratified, Depth: 3, SampleSize: 7, Seed: 3, Workers: 2},
		},
	} {
		name := strings.Join(tc.args, " ")
		tf, lf := parseFamilies(t, tc.args...)
		opts, err := lf.Options(tf.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opts, tc.opts) {
			t.Errorf("%s: Options = %+v, want %+v", name, opts, tc.opts)
		}
		if got := tf.DataRef(); got != tc.ref {
			t.Errorf("%s: DataRef = %+v, want %+v", name, got, tc.ref)
		}
		task, err := tf.Task()
		if err != nil {
			t.Fatal(err)
		}
		ds, err := autobias.GenerateDataset(tc.ref.Dataset, tc.ref.Scale, tc.ref.Seed)
		if err != nil {
			t.Fatal(err)
		}
		want := autobias.TaskFromDataset(ds)
		if task.Target != want.Target || !slices.Equal(task.TargetAttrs, want.TargetAttrs) ||
			fmt.Sprint(task.Pos, task.Neg) != fmt.Sprint(want.Pos, want.Neg) ||
			task.DB.TotalTuples() != want.DB.TotalTuples() || task.Manual == nil {
			t.Errorf("%s: task differs from the generated dataset's", name)
		}
	}

	_, lf := parseFamilies(t, "-sampling", "clever")
	if _, err := lf.Options(1); err == nil || err.Error() != `unknown sampling "clever"` {
		t.Errorf("unknown -sampling: err = %v", err)
	}
}
