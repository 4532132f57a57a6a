package logic

import "sync"

// Interner maps predicate names and constant values to dense int32 ids
// so hot paths (θ-subsumption matching, ground-clause indexing) compare
// and hash machine words instead of strings. One interner is owned per
// engine (the coverage engine builds one per learning task); ids are
// only meaningful relative to their table and never escape into
// results, so id assignment order cannot perturb learned theories.
//
// Determinism: an interner is seeded from the task schema (relation
// names, in schema order) and then grows as ground bottom clauses are
// compiled. The coverage engine populates it during its sequential BC
// prefetch, so table contents are a deterministic function of (task,
// options) at every worker count; concurrent growth from the pooled
// fallback path is safe (the table is internally locked) and affects id
// values only, never match outcomes — two strings are equal iff their
// ids are.
//
// Id 0 is reserved for the empty string. Matching code uses that as the
// "unbound" sentinel, mirroring the legacy matcher's use of "" for free
// variables, so interned and string-based searches take bit-identical
// decisions even on degenerate empty-constant inputs.
type Interner struct {
	mu   sync.RWMutex
	ids  map[string]int32
	strs []string
}

// NewInterner returns an interner holding only the reserved empty
// string at id 0.
func NewInterner() *Interner {
	return &Interner{
		ids:  map[string]int32{"": 0},
		strs: []string{""},
	}
}

// Intern returns the id for s, assigning the next dense id on first
// sight. Safe for concurrent use; the read path takes only an RLock.
func (in *Interner) Intern(s string) int32 {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id
	}
	id = int32(len(in.strs))
	in.ids[s] = id
	in.strs = append(in.strs, s)
	return id
}

// InternAll interns each string in order, for deterministic seeding
// from a schema.
func (in *Interner) InternAll(ss ...string) {
	for _, s := range ss {
		in.Intern(s)
	}
}

// Lookup returns the id for s without assigning one. Callers compiling
// a candidate clause against an already-compiled ground side use this:
// a string the ground side never interned matches no row (a ground
// head value the table lacks is compared by name), so a miss is
// reported rather than grown into the table.
func (in *Interner) Lookup(s string) (int32, bool) {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	return id, ok
}

// Value returns the string for an id previously returned by Intern.
func (in *Interner) Value(id int32) string {
	in.mu.RLock()
	s := in.strs[id]
	in.mu.RUnlock()
	return s
}

// Symbols returns a copy of the intern table in id order (index == id,
// [0] is the reserved empty string). Ids never affect match outcomes, so
// the copy exists for inspection — the determinism suites compare it
// across worker counts — not correctness.
func (in *Interner) Symbols() []string {
	in.mu.RLock()
	out := append([]string(nil), in.strs...)
	in.mu.RUnlock()
	return out
}

// Len returns the number of interned strings (including the reserved
// empty string).
func (in *Interner) Len() int {
	in.mu.RLock()
	n := len(in.strs)
	in.mu.RUnlock()
	return n
}
