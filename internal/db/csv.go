package db

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// WriteCSVDir writes one CSV file per relation into dir (created if
// needed). Each file is named <relation>.csv with a header row of
// attribute names. The inverse of LoadCSVDir. Every relation is read
// from one pinned Snapshot, so a dump is one data version even while
// commits go on, and written through a CSVStreamWriter, the one CSV
// writer.
func (d *Database) WriteCSVDir(dir string) error {
	w, err := NewCSVStreamWriter(dir, d.schema)
	if err != nil {
		return err
	}
	s := d.Snapshot()
	for _, name := range d.schema.Names() {
		for _, t := range s.Relation(name).Snapshot() {
			w.MustInsert(name, t...)
		}
	}
	return w.Close()
}

// LoadCSVDir loads a database from a directory of <relation>.csv files,
// each with a header row naming its attributes. The schema is inferred
// from the files, in lexicographic file order for determinism.
func LoadCSVDir(dir string) (*Database, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("db: load csv dir: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("db: load csv dir %s: no .csv files", dir)
	}
	schema := NewSchema()
	var all []csvRelation
	for _, fn := range files {
		name := strings.TrimSuffix(fn, ".csv")
		l, err := readRelationCSV(filepath.Join(dir, fn), fn)
		if err != nil {
			return nil, err
		}
		l.name = name
		if err := schema.Add(name, l.rows[0]...); err != nil {
			return nil, fmt.Errorf("db: load %s: line %d: %w", fn, l.lines[0], err)
		}
		l.rows, l.lines = l.rows[1:], l.lines[1:]
		all = append(all, l)
	}
	d := New(schema)
	for _, l := range all {
		// Relations are sets: a duplicate row would silently double-count
		// coverage, value frequencies and Olken sampling weights, so the
		// load fails naming both occurrences instead of shrinking or
		// keeping the multiset. Keys join fields on 0x1f (the unit
		// separator), which cannot round-trip through our own writer and
		// is vanishingly unlikely in hand-made data.
		seen := make(map[string]int, len(l.rows))
		ts := make([]Tuple, len(l.rows))
		for i, row := range l.rows {
			key := strings.Join(row, "\x1f")
			if first, dup := seen[key]; dup {
				return nil, fmt.Errorf("db: load %s.csv: line %d: duplicate row (%s) first seen at line %d; relations are sets — deduplicate the file",
					l.name, l.lines[i], strings.Join(row, ","), first)
			}
			seen[key] = l.lines[i]
			ts[i] = row
		}
		if err := d.Relation(l.name).InsertBatch(ts); err != nil {
			return nil, fmt.Errorf("db: load %s.csv: %w", l.name, err)
		}
	}
	// Pre-build every index while still single-threaded: loading is a
	// one-time cost, and it keeps the concurrent learning phase from
	// paying first-touch index construction.
	d.BuildIndexes()
	return d, nil
}

// readRelationCSV reads one relation file record by record, tracking
// source line numbers. Every malformed row is an error naming the file
// and line — a truncated or ragged data file must fail the load, never
// silently shrink the relation (a shrunken relation would quietly skew
// IND discovery and coverage sampling downstream). The first returned
// row is the header; the row arity check is against it, with csv's own
// per-record check disabled so the error carries our file/line framing.
func readRelationCSV(path, fn string) (csvRelation, error) {
	f, err := os.Open(path)
	if err != nil {
		return csvRelation{}, fmt.Errorf("db: load %s: %w", fn, err)
	}
	defer f.Close()

	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	var out csvRelation
	arity := -1
	for {
		row, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return csvRelation{}, fmt.Errorf("db: load %s: %w", fn, err)
		}
		line, _ := r.FieldPos(0)
		if arity < 0 {
			arity = len(row)
		} else if len(row) != arity {
			return csvRelation{}, fmt.Errorf("db: load %s: line %d: row has %d fields, want %d", fn, line, len(row), arity)
		}
		out.rows = append(out.rows, row)
		out.lines = append(out.lines, line)
	}
	if len(out.rows) == 0 {
		return csvRelation{}, fmt.Errorf("db: load %s: empty file (missing header row)", fn)
	}
	return out, nil
}

// csvRelation is one parsed relation file: raw rows (header first) with
// their 1-based source line numbers.
type csvRelation struct {
	name  string
	rows  [][]string
	lines []int
}
