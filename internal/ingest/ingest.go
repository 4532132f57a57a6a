// Package ingest is the live-data mutation subsystem (DESIGN.md §16): it
// accepts batched and streamed tuple inserts/deletes against an
// internal/db database, commits each batch all-or-nothing as one
// db.Database.Commit (per-attribute indexes and distinct-value statistics
// are maintained incrementally), and assigns every committed batch a
// monotonically increasing data version so downstream consumers — the
// incremental theory repairer, model artifacts — can name the snapshot
// they computed against.
//
// A batch is validated in full (schema membership, arity, delete
// existence under bag semantics) before any tuple is touched, so a
// rejected batch leaves the database and its version unchanged. A
// committed batch is atomic to readers too: the database publishes every
// relation the batch touches together with the new version, so a reader
// pinning db.Database.Snapshot sees the whole batch or none of it.
// Commits serialize, and the ApplyAndNotify hook runs while the commit
// lock is still held, so it observes the database holding exactly the
// batches up to and including its own, in version order. The commit
// returns the data version and the tuple counts; the repairer reads
// nothing else from it, because it checks the database itself.
package ingest

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/db"
	"repro/internal/faultpoint"
	"repro/internal/metrics"
)

// Op is a mutation verb.
type Op string

// The two mutation verbs. Deletes follow bag semantics: one delete
// removes one occurrence of the tuple.
const (
	OpInsert Op = "insert"
	OpDelete Op = "delete"
)

// Mutation is one tuple-level change.
type Mutation struct {
	Op       Op       `json:"op"`
	Relation string   `json:"relation"`
	Tuple    []string `json:"tuple"`
}

// Batch is an ordered set of mutations committed all-or-nothing under
// one data version.
type Batch struct {
	Mutations []Mutation `json:"mutations"`
}

// Commit describes one applied batch: the data version it created and
// how many tuples it inserted and deleted.
type Commit struct {
	// Version is the database's data version after the batch.
	Version uint64 `json:"version"`
	// Inserted and Deleted count tuples actually applied (an over-delete
	// is rejected at validation, so Deleted always equals the batch's
	// delete count).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
}

// Ingestor applies mutation batches to a database. Safe for concurrent
// use: commits serialize on an internal mutex, so version assignment is
// atomic with respect to the data it names; readers never wait for it.
type Ingestor struct {
	d  *db.Database
	mu sync.Mutex
	mc *metrics.Collector
}

// New returns an ingestor over d. mc may be nil (metrics disabled).
func New(d *db.Database, mc *metrics.Collector) *Ingestor {
	return &Ingestor{d: d, mc: mc}
}

// Version returns the current data version.
func (ing *Ingestor) Version() uint64 { return ing.d.Version() }

// Apply validates and commits one batch. On success the batch's data
// version and tuple counts are returned; on any validation error the
// database is untouched and the version unchanged. The faultpoint site
// "ingest.commit" sits between validation and mutation, so an injected
// crash models a process dying before the batch lands — the commit
// either happens in full or not at all.
func (ing *Ingestor) Apply(ctx context.Context, b Batch) (Commit, error) {
	return ing.ApplyAndNotify(ctx, b, nil)
}

// ApplyAndNotify is Apply plus a commit hook that runs while the
// ingestor's commit lock is still held: no later batch can validate or
// commit until the hook returns, so even with concurrent callers every
// hook observes strictly increasing versions against a database
// holding exactly the batches up to and including its own. A repair
// (autobias.RepairCtx) driven from the hook therefore repairs against the
// database exactly as its own batch left it.
func (ing *Ingestor) ApplyAndNotify(ctx context.Context, b Batch, onCommit func(Commit)) (Commit, error) {
	if len(b.Mutations) == 0 {
		return Commit{}, fmt.Errorf("ingest: empty batch")
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return Commit{}, err
	}
	start := ing.mc.StartSpan()
	c, err := ing.commit(ctx, b)
	if err != nil {
		return Commit{}, err
	}
	ing.mc.EndSpan(metrics.SpanIngestCommit, start)
	ing.mc.Inc(metrics.IngestBatches)
	ing.mc.Add(metrics.IngestTuplesApplied, int64(c.Inserted+c.Deleted))
	if onCommit != nil {
		onCommit(c)
	}
	return c, nil
}

// commit validates b and applies it as one database commit. Caller holds
// ing.mu.
func (ing *Ingestor) commit(ctx context.Context, b Batch) (Commit, error) {
	var c Commit
	inserts := make(map[string][]db.Tuple)
	deletes := make(map[string][]db.Tuple)
	for i, m := range b.Mutations {
		rel := ing.d.Relation(m.Relation)
		if rel == nil {
			return Commit{}, fmt.Errorf("ingest: mutation %d: unknown relation %q", i, m.Relation)
		}
		if len(m.Tuple) != len(rel.Schema.Attributes) {
			return Commit{}, fmt.Errorf("ingest: mutation %d: relation %q expects arity %d, got %d",
				i, m.Relation, len(rel.Schema.Attributes), len(m.Tuple))
		}
		switch m.Op {
		case OpInsert:
			inserts[m.Relation] = append(inserts[m.Relation], m.Tuple)
			c.Inserted++
		case OpDelete:
			deletes[m.Relation] = append(deletes[m.Relation], m.Tuple)
			c.Deleted++
		default:
			return Commit{}, fmt.Errorf("ingest: mutation %d: unknown op %q", i, m.Op)
		}
	}
	if len(deletes) > 0 {
		if err := ing.checkDeletes(b); err != nil {
			return Commit{}, err
		}
	}

	if err := faultpoint.Inject(ctx, "ingest.commit"); err != nil {
		return Commit{}, err
	}
	var err error
	if c.Version, err = ing.d.Commit(inserts, deletes); err != nil {
		// Unreachable after validation; surface rather than hide.
		return Commit{}, fmt.Errorf("ingest: commit: %w", err)
	}
	return c, nil
}

// checkDeletes checks every deleted tuple under bag semantics against
// the pre-batch multiplicity plus every same-batch insert of the same
// tuple, independent of mutation order — the commit applies all inserts
// before any delete, so [delete t, insert t] is exactly as valid as
// [insert t, delete t]. Only deleted tuples are counted, so an
// insert-only batch never gets here.
func (ing *Ingestor) checkDeletes(b Batch) error {
	type pending struct{ ins, del int }
	counts := make(map[[2]string]*pending) // (relation, tuple key)
	key := func(m Mutation) [2]string { return [2]string{m.Relation, db.Tuple(m.Tuple).Key()} }
	for _, m := range b.Mutations {
		if m.Op == OpDelete {
			counts[key(m)] = &pending{}
		}
	}
	for _, m := range b.Mutations {
		if p := counts[key(m)]; p != nil && m.Op == OpInsert {
			p.ins++
		} else if p != nil {
			p.del++
		}
	}
	// Check each deleted tuple once, at its first delete mutation:
	// iterating the mutations (not the map) keeps the reported failure
	// deterministic.
	for i, m := range b.Mutations {
		if m.Op != OpDelete {
			continue
		}
		k := key(m)
		p := counts[k]
		if p == nil {
			continue
		}
		delete(counts, k)
		if have := ing.d.Relation(m.Relation).Count(m.Tuple) + p.ins; p.del > have {
			return fmt.Errorf("ingest: mutation %d: delete of %q%v exceeds multiplicity %d",
				i, m.Relation, m.Tuple, have)
		}
	}
	return nil
}

// Stream accumulates mutations and commits them in bounded batches —
// the library form of the HTTP streaming endpoint. Not safe for
// concurrent use; each stream belongs to one producer.
type Stream struct {
	ing   *Ingestor
	limit int
	buf   []Mutation
	// OnCommit, when non-nil, runs under the ingestor's commit lock for
	// every batch the stream commits (see Ingestor.ApplyAndNotify).
	OnCommit func(Commit)
	// Commits records every batch committed through the stream.
	Commits []Commit
}

// NewStream returns a stream over ing committing every limit mutations;
// limit <= 0 selects 512.
func (ing *Ingestor) NewStream(limit int) *Stream {
	if limit <= 0 {
		limit = 512
	}
	return &Stream{ing: ing, limit: limit}
}

// Add buffers one mutation, committing a batch when the buffer fills.
func (s *Stream) Add(ctx context.Context, m Mutation) error {
	s.buf = append(s.buf, m)
	if len(s.buf) >= s.limit {
		return s.Flush(ctx)
	}
	return nil
}

// Flush commits any buffered mutations as one batch.
func (s *Stream) Flush(ctx context.Context) error {
	if len(s.buf) == 0 {
		return nil
	}
	c, err := s.ing.ApplyAndNotify(ctx, Batch{Mutations: s.buf}, s.OnCommit)
	if err != nil {
		return err
	}
	s.buf = s.buf[:0]
	s.Commits = append(s.Commits, c)
	return nil
}
