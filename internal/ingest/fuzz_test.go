package ingest

import (
	"context"
	"slices"
	"testing"

	"repro/internal/db"
)

// FuzzIngestBatch commits random batches — inserts, deletes of stored
// tuples, over-deletes, unknown relations, wrong arities, unknown ops —
// one after another. A rejected batch must leave the digest and the
// version untouched; an accepted one must advance the version by one and
// leave exactly the database a cold load of the model's tuples builds.
// The model decides acceptance on its own: a batch is valid when every
// mutation names a relation, arity and op that exist and every delete
// finds an occurrence once the batch's inserts have landed.
func FuzzIngestBatch(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 2, 3, 1, 0, 0})             // an insert and a delete of a stored tuple
	f.Add([]byte{2, 5, 0, 7, 7, 0, 0, 7, 7})             // a delete before the insert that satisfies it
	f.Add([]byte{3, 3, 0, 4, 0, 3, 0, 4, 0, 3, 0, 4, 0}) // one stored tuple deleted three times
	f.Add([]byte{1, 6, 1, 2, 3, 1, 7, 0, 1, 2})          // an unknown relation, then a wrong arity
	f.Add([]byte{4, 0, 1, 2, 3, 0, 1, 2, 3, 4, 0, 9, 9, 5, 1, 9, 9, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := testDB()
		d.BuildIndexes()
		ing := New(d, nil)
		model := map[string][]db.Tuple{}
		for _, name := range d.Schema().Names() {
			model[name] = slices.Clone(d.Relation(name).Snapshot())
		}
		vals := []string{"n0", "n1", "n2", "n3", "t0", "t1", "w"}
		rels := []string{"edge", "label"}
		// At most eight batches per input: each is checked against a cold
		// load of the whole model, so an unbounded input would cost its
		// length squared.
		for batches := 0; batches < 8 && len(data) > 0; batches++ {
			n := int(data[0])%6 + 1
			data = data[1:]
			var b Batch
			for ; n > 0 && len(data) >= 4; n-- {
				op, rel, x, y := data[0], rels[data[1]%2], data[2], data[3]
				data = data[4:]
				m := Mutation{Op: OpInsert, Relation: rel, Tuple: []string{vals[int(x)%len(vals)], vals[int(y)%len(vals)]}}
				switch op % 8 {
				case 3, 4: // delete a stored tuple
					if stored := model[rel]; len(stored) > 0 {
						m.Tuple = stored[(int(x)<<8|int(y))%len(stored)]
					}
					m.Op = OpDelete
				case 5:
					m.Op = OpDelete
				case 6:
					m.Relation = "nope"
				case 7:
					if x%2 == 0 {
						m.Tuple = m.Tuple[:1]
					} else {
						m.Op = "upsert"
					}
				}
				b.Mutations = append(b.Mutations, m)
			}
			if len(b.Mutations) == 0 {
				return
			}
			next, valid := applyModel(model, b)
			digest, version := d.IndexDigest(), d.Version()
			c, err := ing.Apply(context.Background(), b)
			if (err == nil) != valid {
				t.Fatalf("batch %v: Apply error %v, model says valid=%v", b.Mutations, err, valid)
			}
			if err != nil {
				if d.IndexDigest() != digest || d.Version() != version {
					t.Fatalf("rejected batch %v changed the database", b.Mutations)
				}
				continue
			}
			model = next
			cold := db.New(d.Schema())
			for _, name := range d.Schema().Names() {
				for _, tp := range model[name] {
					cold.MustInsert(name, tp...)
				}
			}
			if c.Version != version+1 || d.Version() != version+1 {
				t.Fatalf("accepted batch: commit version %d, database %d, want %d", c.Version, d.Version(), version+1)
			}
			if got, want := d.IndexDigest(), cold.IndexDigest(); got != want {
				t.Fatalf("batch %v: committed digest differs from a cold load of the model", b.Mutations)
			}
		}
	})
}

// applyModel returns the relations after b — every insert appended in
// mutation order, then each delete removing the first equal tuple — and
// whether b is valid.
func applyModel(model map[string][]db.Tuple, b Batch) (map[string][]db.Tuple, bool) {
	next := map[string][]db.Tuple{}
	for name, ts := range model {
		next[name] = slices.Clone(ts)
	}
	for _, m := range b.Mutations {
		ts, ok := next[m.Relation]
		if !ok || len(m.Tuple) != 2 || (m.Op != OpInsert && m.Op != OpDelete) {
			return nil, false
		}
		if m.Op == OpInsert {
			next[m.Relation] = append(ts, m.Tuple)
		}
	}
	for _, m := range b.Mutations {
		if m.Op != OpDelete {
			continue
		}
		ts := next[m.Relation]
		i := slices.IndexFunc(ts, func(t db.Tuple) bool { return t.Equal(m.Tuple) })
		if i < 0 {
			return nil, false
		}
		next[m.Relation] = slices.Delete(ts, i, i+1)
	}
	return next, true
}
