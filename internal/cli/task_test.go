package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBuildTaskCSV loads the layout cmd/datasetgen writes — a db/
// directory of <relation>.csv files beside pos.txt and neg.txt — and
// checks the examples arrive with it; a -csv run without -attrs is
// refused rather than learned from a guessed signature.
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

	task, err := BuildTask("", 0, 1, csvDir, "grandparent", "gp,gc", pos, neg)
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

	if _, err := BuildTask("", 0, 1, csvDir, "grandparent", "", pos, neg); err == nil || !strings.Contains(err.Error(), "-attrs") {
		t.Errorf("-csv without -attrs: err = %v", err)
	}
}
