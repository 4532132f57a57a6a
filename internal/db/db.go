// Package db implements the in-memory relational engine the learner runs
// on. It stands in for VoltDB in the paper's stack: the learning
// algorithms only need indexed selections (σ_{A∈M}(R)), projections,
// right semi-joins and per-attribute statistics (distinct counts and
// value frequencies for Olken-style sampling), all of which this engine
// provides with per-attribute hash indexes.
//
// Storage is versioned and readers never lock (DESIGN.md §6): a
// relation's state at one version is immutable and published through an
// atomic pointer, Database.Snapshot pins every relation at one version,
// and Database.Commit publishes every relation a batch touches at once,
// with the advanced data version. An insert costs O(batch); a delete
// rebuilds the relation it touches.
package db

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Tuple is one row; values are untyped strings, matching the paper's
// treatment of all attributes as symbolic constants.
type Tuple []string

// Equal reports whether two tuples have identical values.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Key flattens a tuple into a map key ('\x00' cannot appear in CSV
// values, so the join is unambiguous).
func (t Tuple) Key() string {
	n := 0
	for _, v := range t {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for _, v := range t {
		b = append(b, v...)
		b = append(b, 0)
	}
	return string(b)
}

// RelationSchema names a relation and its attributes.
type RelationSchema struct {
	Name       string
	Attributes []string
}

// Arity returns the number of attributes.
func (rs *RelationSchema) Arity() int { return len(rs.Attributes) }

// AttrIndex returns the position of the named attribute, or -1.
func (rs *RelationSchema) AttrIndex(name string) int {
	for i, a := range rs.Attributes {
		if a == name {
			return i
		}
	}
	return -1
}

// Schema is the set of relation schemas in a database.
type Schema struct {
	byName map[string]*RelationSchema
	order  []string
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{byName: make(map[string]*RelationSchema)}
}

// Add registers a relation schema. It returns an error on duplicate
// names or empty attribute lists.
func (s *Schema) Add(name string, attributes ...string) error {
	if _, ok := s.byName[name]; ok {
		return fmt.Errorf("db: duplicate relation %q", name)
	}
	if len(attributes) == 0 {
		return fmt.Errorf("db: relation %q has no attributes", name)
	}
	seen := make(map[string]bool, len(attributes))
	for _, a := range attributes {
		if seen[a] {
			return fmt.Errorf("db: relation %q has duplicate attribute %q", name, a)
		}
		seen[a] = true
	}
	s.byName[name] = &RelationSchema{Name: name, Attributes: append([]string(nil), attributes...)}
	s.order = append(s.order, name)
	return nil
}

// MustAdd is Add that panics on error; for static schema tables.
func (s *Schema) MustAdd(name string, attributes ...string) {
	if err := s.Add(name, attributes...); err != nil {
		panic(err)
	}
}

// Relation returns the schema of the named relation, or nil.
func (s *Schema) Relation(name string) *RelationSchema { return s.byName[name] }

// Names returns relation names in registration order.
func (s *Schema) Names() []string { return append([]string(nil), s.order...) }

// Len returns the number of relations.
func (s *Schema) Len() int { return len(s.order) }

// mergeDivisor: an attribute's delta is merged into a fresh base once it
// holds more than 1/mergeDivisor as many values as the base. That bounds
// what a commit copies by an eighth of the directory while a merge, which
// copies the whole directory, stays amortized O(1) per inserted value.
const mergeDivisor = 8

// index is one attribute's value → postings directory at one version.
// base holds the postings as of the last merge; delta, copy-on-write,
// the complete postings of every value changed since, shadowing base.
// A postings list is ascending and append-only: its backing array is
// shared with later versions, which only write past its length.
type index struct {
	base, delta       map[string][]int
	distinct, maxFreq int
}

func buildIndex(ts []Tuple, attr int) *index {
	x := &index{base: make(map[string][]int)}
	for pos, t := range ts {
		ps := append(x.base[t[attr]], pos)
		x.base[t[attr]] = ps
		x.maxFreq = max(x.maxFreq, len(ps))
	}
	x.distinct = len(x.base)
	return x
}

func (x *index) postings(v string) []int {
	if ps, ok := x.delta[v]; ok {
		return ps
	}
	return x.base[v]
}

// appended returns the index after ts were appended at positions start,
// start+1, …: byte-identical postings to a cold build over the grown
// tuples, at a cost of O(len(ts) + len(x.delta)) between merges.
func (x *index) appended(ts []Tuple, attr, start int) *index {
	next := &index{base: x.base, delta: make(map[string][]int, len(x.delta)+len(ts)), distinct: x.distinct, maxFreq: x.maxFreq}
	maps.Copy(next.delta, x.delta)
	for i, t := range ts {
		ps := next.postings(t[attr])
		if len(ps) == 0 {
			next.distinct++
		}
		ps = append(ps, start+i)
		next.delta[t[attr]] = ps
		next.maxFreq = max(next.maxFreq, len(ps))
	}
	if len(next.delta) > len(next.base)/mergeDivisor {
		base := make(map[string][]int, len(next.base)+len(next.delta))
		maps.Copy(base, next.base)
		maps.Copy(base, next.delta)
		next.base, next.delta = base, nil
	}
	return next
}

// state is one relation at one version: an immutable prefix of the
// relation's tuples and the attribute indexes over it. A missing index is
// built on first use and filled in atomically, at most once per state.
type state struct {
	tuples []Tuple
	idx    []atomic.Pointer[index]
}

func newState(arity int, ts []Tuple) *state {
	return &state{tuples: ts, idx: make([]atomic.Pointer[index], arity)}
}

func (v *state) index(attr int) *index {
	if x := v.idx[attr].Load(); x != nil {
		return x
	}
	v.idx[attr].CompareAndSwap(nil, buildIndex(v.tuples, attr))
	return v.idx[attr].Load()
}

// appended returns the next version with ts appended, maintaining every
// index v has built.
func (v *state) appended(ts []Tuple) *state {
	next := newState(len(v.idx), append(v.tuples, ts...))
	for i := range v.idx {
		if x := v.idx[i].Load(); x != nil {
			next.idx[i].Store(x.appended(ts, i, len(v.tuples)))
		}
	}
	return next
}

// without returns the next version with the first occurrence of each of
// ts removed (bag semantics: a tuple listed twice removes two), and how
// many were removed. Removal shifts positions, so every index v has built
// is rebuilt.
func (v *state) without(ts []Tuple) (*state, int) {
	want := make(map[string]int, len(ts))
	for _, t := range ts {
		want[t.Key()]++
	}
	kept := make([]Tuple, 0, len(v.tuples))
	for _, t := range v.tuples {
		if k := t.Key(); want[k] > 0 {
			want[k]--
			continue
		}
		kept = append(kept, t)
	}
	removed := len(v.tuples) - len(kept)
	if removed == 0 {
		return v, 0
	}
	next := newState(len(v.idx), kept)
	for i := range v.idx {
		if v.idx[i].Load() != nil {
			next.index(i)
		}
	}
	return next, removed
}

// next returns the version after ins are appended and then del removed,
// and how many del removed.
func (v *state) next(ins, del []Tuple) (*state, int) {
	if len(ins) > 0 {
		v = v.appended(ins)
	}
	if len(del) > 0 {
		return v.without(del)
	}
	return v, 0
}

// values returns the distinct values of attribute attr, sorted.
func (v *state) values(attr int) []string {
	x := v.index(attr)
	out := make([]string, 0, x.distinct)
	for val := range x.base {
		out = append(out, val)
	}
	for val := range x.delta {
		if _, ok := x.base[val]; !ok {
			out = append(out, val)
		}
	}
	sort.Strings(out)
	return out
}

// writer serializes one database's mutations. seq is odd while a
// publication is in progress; Snapshot reads every relation's state
// between two equal, even values of it.
type writer struct {
	mu      sync.Mutex
	seq     atomic.Uint64
	version atomic.Uint64
}

type step struct {
	r *Relation
	v *state
}

// publish makes every step's state current at once, advancing the data
// version if asked, and returns the version. Caller holds mu.
func (w *writer) publish(steps []step, advance bool) uint64 {
	w.seq.Add(1)
	for _, s := range steps {
		s.r.cur.Store(s.v)
	}
	if advance {
		w.version.Add(1)
	}
	w.seq.Add(1)
	return w.version.Load()
}

// Relation is a stored relation. One from Database.Relation is a live
// handle: every method call reads or publishes one version, so a handle
// held across commits sees the latest data. One from Snapshot.Relation is
// pinned to the snapshot's version and read-only. Every method is safe
// for concurrent use.
type Relation struct {
	Schema *RelationSchema
	w      *writer // nil when pinned
	cur    atomic.Pointer[state]
}

func newRelation(rs *RelationSchema, w *writer) *Relation {
	r := &Relation{Schema: rs, w: w}
	r.cur.Store(newState(rs.Arity(), nil))
	return r
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.cur.Load().tuples) }

// Snapshot returns the current tuples, which callers must not modify.
// The slice is capped at its length, so appending to it copies.
func (r *Relation) Snapshot() []Tuple {
	ts := r.cur.Load().tuples
	return ts[:len(ts):len(ts)]
}

// Lookup returns the tuples whose attribute attr equals value.
func (r *Relation) Lookup(attr int, value string) []Tuple {
	v := r.cur.Load()
	ps := v.index(attr).postings(value)
	if len(ps) == 0 {
		return nil
	}
	out := make([]Tuple, len(ps))
	for i, p := range ps {
		out[i] = v.tuples[p]
	}
	return out
}

// Postings returns Lookup(attr, value) uncopied, in one index probe:
// Lookup(attr, value)[i] is tuples[rows[i]], both read from one version.
// The slices are the relation's own; callers must not modify either. Both
// are capped, as Snapshot's result is, since later versions append to them.
func (r *Relation) Postings(attr int, value string) (tuples []Tuple, rows []int) {
	v := r.cur.Load()
	ps := v.index(attr).postings(value)
	return v.tuples[:len(v.tuples):len(v.tuples)], ps[:len(ps):len(ps)]
}

// Frequency returns m_{R.attr}(value): how many tuples hold value in
// attribute attr.
func (r *Relation) Frequency(attr int, value string) int {
	return len(r.cur.Load().index(attr).postings(value))
}

// MaxFrequency returns M_{R.attr}: the maximum frequency of any value in
// attribute attr (0 for an empty relation).
func (r *Relation) MaxFrequency(attr int) int { return r.cur.Load().index(attr).maxFreq }

// DistinctCount returns the number of distinct values in attribute attr.
func (r *Relation) DistinctCount(attr int) int { return r.cur.Load().index(attr).distinct }

// DistinctValues returns the distinct values of attribute attr in sorted
// order (sorted for determinism).
func (r *Relation) DistinctValues(attr int) []string { return r.cur.Load().values(attr) }

// Contains reports whether value appears in attribute attr.
func (r *Relation) Contains(attr int, value string) bool { return r.Frequency(attr, value) > 0 }

// SelectIn returns σ_{attr ∈ values}(R): every tuple whose attribute attr
// takes a value in the given set. This is the selection primitive used by
// bottom-clause construction (paper Algorithm 2, line 7).
func (r *Relation) SelectIn(attr int, values map[string]bool) []Tuple {
	v := r.cur.Load()
	x := v.index(attr)
	var out []Tuple
	// Iterate the smaller side for efficiency on large relations.
	if len(values) <= x.distinct {
		keys := make([]string, 0, len(values))
		for val := range values {
			keys = append(keys, val)
		}
		sort.Strings(keys) // deterministic output order
		for _, k := range keys {
			for _, p := range x.postings(k) {
				out = append(out, v.tuples[p])
			}
		}
		return out
	}
	for _, t := range v.tuples {
		if values[t[attr]] {
			out = append(out, t)
		}
	}
	return out
}

// Count returns how many occurrences of t the relation holds (the bag
// multiplicity), via the first attribute's index.
func (r *Relation) Count(t Tuple) int {
	v := r.cur.Load()
	if len(t) != len(v.idx) || len(t) == 0 {
		return 0
	}
	n := 0
	for _, p := range v.index(0).postings(t[0]) {
		if v.tuples[p].Equal(t) {
			n++
		}
	}
	return n
}

// IndexDigest hashes the relation's complete index and statistics state
// — every attribute's postings lists (values in sorted order, positions
// in postings order) plus its max frequency — building missing indexes
// first. Streamed mutation and a cold load of the same tuples produce the
// same digest; the stress suite and the merge-boundary test pin that.
func (r *Relation) IndexDigest() string {
	v := r.cur.Load()
	h := sha256.New()
	for i := range v.idx {
		x := v.index(i)
		fmt.Fprintf(h, "attr %d max %d\n", i, x.maxFreq)
		for _, val := range v.values(i) {
			h.Write([]byte(val))
			h.Write([]byte{0})
			for _, p := range x.postings(val) {
				h.Write([]byte(strconv.Itoa(p)))
				h.Write([]byte{1})
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (r *Relation) checkArity(ts []Tuple) error {
	for _, t := range ts {
		if len(t) != r.Schema.Arity() {
			return fmt.Errorf("db: %s: tuple arity %d, want %d", r.Schema.Name, len(t), r.Schema.Arity())
		}
	}
	return nil
}

// write publishes r's next version: ins appended, then del removed. It
// returns how many del removed.
func (r *Relation) write(ins, del []Tuple) int {
	if r.w == nil {
		panic("db: " + r.Schema.Name + ": a snapshot's relation is read-only")
	}
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	next, n := r.cur.Load().next(ins, del)
	r.w.publish([]step{{r, next}}, false)
	return n
}

// Insert appends a tuple, validating arity; see InsertBatch.
func (r *Relation) Insert(t Tuple) error { return r.InsertBatch([]Tuple{t}) }

// InsertBatch appends tuples as one new version, validating every arity
// first so the batch applies completely or not at all. Built indexes and
// statistics are maintained incrementally — appends are position-stable,
// so they stay byte-identical to a cold build — at O(batch) cost.
func (r *Relation) InsertBatch(ts []Tuple) error {
	if err := r.checkArity(ts); err != nil {
		return err
	}
	r.write(ts, nil)
	return nil
}

// DeleteBatch removes one occurrence per given tuple (bag semantics: a
// tuple listed twice removes two occurrences) as one new version and
// returns how many were removed. The relation is rebuilt: its surviving
// tuples are copied and its built indexes rebuilt over them.
func (r *Relation) DeleteBatch(ts []Tuple) int { return r.write(nil, ts) }

// BuildIndexes eagerly builds every attribute index of the current
// version; every later version maintains them. Call once after loading,
// before any concurrent write, so readers never pay lazy construction.
func (r *Relation) BuildIndexes() {
	v := r.cur.Load()
	for i := range v.idx {
		v.index(i)
	}
}

// Database is a collection of relation instances over a schema.
type Database struct {
	schema *Schema
	rels   []*Relation // schema order
	pos    map[string]int
	// w is shared with the databases Extend derives, whose relations are
	// d's own; version lives in it. The version is 0 for the loaded
	// snapshot and advances once per Commit; downstream consumers —
	// repair, model artifacts — name the snapshot they computed against
	// by this number.
	w *writer
}

// New creates a database with empty instances for every relation in the
// schema.
func New(schema *Schema) *Database {
	d := &Database{schema: schema, pos: make(map[string]int, schema.Len()), w: &writer{}}
	for _, name := range schema.Names() {
		d.pos[name] = len(d.rels)
		d.rels = append(d.rels, newRelation(schema.Relation(name), d.w))
	}
	return d
}

// Schema returns the database schema.
func (d *Database) Schema() *Schema { return d.schema }

// Relation returns the named relation instance, or nil.
func (d *Database) Relation(name string) *Relation {
	if i, ok := d.pos[name]; ok {
		return d.rels[i]
	}
	return nil
}

// Insert adds a tuple to the named relation.
func (d *Database) Insert(relation string, values ...string) error {
	r := d.Relation(relation)
	if r == nil {
		return fmt.Errorf("db: unknown relation %q", relation)
	}
	return r.Insert(Tuple(values))
}

// MustInsert is Insert that panics on error; for tests and generators.
func (d *Database) MustInsert(relation string, values ...string) {
	if err := d.Insert(relation, values...); err != nil {
		panic(err)
	}
}

// TotalTuples returns the number of tuples across all relations.
func (d *Database) TotalTuples() int {
	s, n := d.Snapshot(), 0
	for i := range s.rels {
		n += s.rels[i].Len()
	}
	return n
}

// BuildIndexes eagerly indexes every relation.
func (d *Database) BuildIndexes() {
	for _, r := range d.rels {
		r.BuildIndexes()
	}
}

// Version returns the database's current data version (0 = the loaded
// snapshot, before any committed mutation batch).
func (d *Database) Version() uint64 { return d.w.version.Load() }

// IndexDigest hashes every relation's index and statistics state in
// schema order, from one snapshot; see Relation.IndexDigest.
func (d *Database) IndexDigest() string {
	s, h := d.Snapshot(), sha256.New()
	for i := range s.rels {
		fmt.Fprintf(h, "rel %s %s\n", s.rels[i].Schema.Name, s.rels[i].IndexDigest())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Commit applies one batch — every insert, then every delete, per
// relation, with InsertBatch's and DeleteBatch's semantics — and
// publishes all the relations it touches at once with the data version
// advanced by one, which it returns. An unknown relation or a wrong arity
// is an error before anything is applied.
func (d *Database) Commit(inserts, deletes map[string][]Tuple) (uint64, error) {
	for _, batch := range []map[string][]Tuple{inserts, deletes} {
		for name, ts := range batch {
			r := d.Relation(name)
			if r == nil {
				return 0, fmt.Errorf("db: unknown relation %q", name)
			}
			if err := r.checkArity(ts); err != nil {
				return 0, err
			}
		}
	}
	d.w.mu.Lock()
	defer d.w.mu.Unlock()
	var steps []step
	for _, r := range d.rels {
		if ins, del := inserts[r.Schema.Name], deletes[r.Schema.Name]; len(ins)+len(del) > 0 {
			next, _ := r.cur.Load().next(ins, del)
			steps = append(steps, step{r, next})
		}
	}
	return d.w.publish(steps, true), nil
}

// Snapshot is one published state of a database: every relation pinned
// at one version, and the data version they make up. It never changes;
// pin one to read a consistent state across many calls while commits go
// on.
type Snapshot struct {
	d       *Database
	version uint64
	rels    []Relation
}

// Snapshot returns the database's current state. It never waits for a
// lock: it reads every relation's state between two equal, even values of
// the writer's sequence, and reads again if a publication overlapped.
func (d *Database) Snapshot() *Snapshot {
	for {
		if seq := d.w.seq.Load(); seq&1 == 0 {
			s := &Snapshot{d: d, version: d.w.version.Load(), rels: make([]Relation, len(d.rels))}
			for i, r := range d.rels {
				s.rels[i].Schema = r.Schema
				s.rels[i].cur.Store(r.cur.Load())
			}
			if d.w.seq.Load() == seq {
				return s
			}
		}
		runtime.Gosched()
	}
}

// Version returns the data version the snapshot holds.
func (s *Snapshot) Version() uint64 { return s.version }

// Relation returns the named relation pinned at the snapshot's version,
// or nil.
func (s *Snapshot) Relation(name string) *Relation {
	if i, ok := s.d.pos[name]; ok {
		return &s.rels[i]
	}
	return nil
}

// Extend returns a new database view that shares every relation instance
// of d (no tuple copying), its writer and its version, and adds one extra
// relation with the given tuples. It is used to treat the training
// examples of the target relation as a pseudo-relation during IND
// discovery and bias induction.
func Extend(d *Database, name string, attributes []string, tuples []Tuple) (*Database, error) {
	schema := NewSchema()
	for _, r := range d.rels {
		if err := schema.Add(r.Schema.Name, r.Schema.Attributes...); err != nil {
			return nil, err
		}
	}
	if err := schema.Add(name, attributes...); err != nil {
		return nil, err
	}
	extra := newRelation(schema.Relation(name), d.w)
	if err := extra.InsertBatch(tuples); err != nil {
		return nil, err
	}
	extra.BuildIndexes()
	ext := &Database{schema: schema, rels: append(slices.Clone(d.rels), extra), pos: maps.Clone(d.pos), w: d.w}
	ext.pos[name] = len(d.rels)
	return ext, nil
}
