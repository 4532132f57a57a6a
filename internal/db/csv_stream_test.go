package db

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadCSVDirRejectsDuplicateRows(t *testing.T) {
	dir := t.TempDir()
	csv := "course,prof,term\nc1,p1,t1\nc2,p2,t2\nc1,p1,t1\n"
	if err := os.WriteFile(filepath.Join(dir, "taughtBy.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCSVDir(dir)
	if err == nil {
		t.Fatal("load accepted a duplicate row; relations are sets")
	}
	// The error must name the file, the duplicate's line, and the line of
	// the first occurrence so the user can fix the data.
	for _, want := range []string{"taughtBy.csv", "line 4", "line 2", "duplicate row"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestLoadCSVDirDuplicateCheckIsPerRelation(t *testing.T) {
	dir := t.TempDir()
	// The same row text in two different relations is fine.
	for _, name := range []string{"a.csv", "b.csv"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x,y\nv1,v2\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadCSVDir(dir); err != nil {
		t.Fatalf("cross-relation duplicate rows must load: %v", err)
	}
}

// TestCSVStreamWriterMatchesWriteCSVDir pins the equivalence the
// streamed generation path relies on: streaming tuples through
// CSVStreamWriter produces byte-identical files to materializing the
// same database and calling WriteCSVDir.
func TestCSVStreamWriterMatchesWriteCSVDir(t *testing.T) {
	s := NewSchema()
	s.MustAdd("edge", "from", "to")
	s.MustAdd("node", "id")
	tuples := []struct {
		rel  string
		vals []string
	}{
		{"node", []string{"n1"}},
		{"edge", []string{"n1", "n2"}},
		{"node", []string{"n2"}},
		{"edge", []string{"n2", "n1"}},
	}

	streamDir := t.TempDir()
	w, err := NewCSVStreamWriter(streamDir, s)
	if err != nil {
		t.Fatal(err)
	}
	d := New(s)
	for _, tp := range tuples {
		w.MustInsert(tp.rel, tp.vals...)
		d.MustInsert(tp.rel, tp.vals...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := w.TotalRows(), int64(len(tuples)); got != want {
		t.Errorf("TotalRows = %d, want %d", got, want)
	}
	if got := w.Rows("edge"); got != 2 {
		t.Errorf("Rows(edge) = %d, want 2", got)
	}

	memDir := t.TempDir()
	if err := d.WriteCSVDir(memDir); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.Names() {
		streamed, err := os.ReadFile(filepath.Join(streamDir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		materialized, err := os.ReadFile(filepath.Join(memDir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if string(streamed) != string(materialized) {
			t.Errorf("%s.csv: streamed and materialized files differ:\n--- streamed\n%s--- materialized\n%s",
				name, streamed, materialized)
		}
	}

	// And the streamed directory loads back into an equal database.
	back, err := LoadCSVDir(streamDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range s.Names() {
		want, got := d.Relation(name).Snapshot(), back.Relation(name).Snapshot()
		if len(want) != len(got) {
			t.Fatalf("%s: %d tuples loaded, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Fatalf("%s: tuple %d = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}

func TestCSVStreamWriterMisusePanics(t *testing.T) {
	s := NewSchema()
	s.MustAdd("r", "a")
	w, err := NewCSVStreamWriter(t.TempDir(), s)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("unknown relation", func() { w.MustInsert("nope", "v") })
	mustPanic("bad arity", func() { w.MustInsert("r", "v1", "v2") })
}
