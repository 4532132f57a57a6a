// Package schematx is the schema transformation engine behind the
// schema-independence stress harness (DESIGN.md §14). The paper's
// central usability claim — and the formal property of "Schema
// Independent Relational Learning" (same authors) — is that a learner
// with the right language bias finds the same concept no matter how the
// DBA happened to normalize the schema. This package makes that
// testable: it mechanically rewrites a dataset into provably equivalent
// schema variants, producing for each transform
//
//   - the rewritten relations (a new db.Database),
//   - the rewritten language bias (predicate and mode definitions that
//     give bottom-clause construction the same reach over the new
//     shape), and
//   - an inverse: Variant.Invert reconstructs the original database,
//     byte for byte, which RoundTrip verifies against a canonical dump.
//
// Three transforms cover the normalization axes of the schema-
// independence literature: VerticalPartition (split a relation's
// columns into key-joined fragments), Denormalize (fold a functional-
// dependency join into one wide relation) and JoinDecompose
// (dictionary-encode a column through a surrogate key). The
// cross-variant differential harness (internal/testkit, TestSchemaVariant*)
// then learns on each variant and asserts held-out coverage agreement
// with the base schema's theory.
package schematx

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/bias"
	"repro/internal/db"
)

// Source is the base-schema side of a transformation: the database, the
// language bias phrased against it, and the learning target (which is
// not a stored relation and is never rewritten — examples stay valid
// across every variant).
type Source struct {
	DB          *db.Database
	Bias        *bias.Bias
	Target      string
	TargetAttrs []string
}

// Variant is one equivalent rewrite of a Source.
type Variant struct {
	// Name identifies the transform that produced the variant.
	Name string
	// DB holds the rewritten relations.
	DB *db.Database
	// Bias is the rewritten language bias, validated and compilable
	// against DB's schema.
	Bias *bias.Bias
	// Invert reconstructs the original database from DB's relations
	// alone (it must not capture the source tuples). Tuple order and
	// schema registration order are restored exactly, so Dump of the
	// inversion is byte-identical to Dump of the source.
	Invert func() (*db.Database, error)
}

// Transform rewrites a source into an equivalent variant.
type Transform interface {
	Name() string
	Apply(src Source) (*Variant, error)
}

// Dump renders a database in canonical byte form: relations in schema
// registration order, each as a header line followed by its tuples in
// stored order, fields joined on 0x1f. Two databases with equal dumps
// have identical schemas, identical tuples and identical tuple order.
func Dump(d *db.Database) []byte {
	var b bytes.Buffer
	for _, name := range d.Schema().Names() {
		r := d.Relation(name)
		b.WriteByte('%')
		b.WriteString(name)
		b.WriteByte('(')
		b.WriteString(strings.Join(r.Schema.Attributes, ","))
		b.WriteString(")\n")
		for _, t := range r.Snapshot() {
			b.WriteString(strings.Join(t, "\x1f"))
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// RoundTrip applies the transform and proves it lossless: the variant's
// Invert must reproduce the source database byte for byte under Dump.
// It returns the verified variant.
func RoundTrip(tr Transform, src Source) (*Variant, error) {
	want := Dump(src.DB)
	v, err := tr.Apply(src)
	if err != nil {
		return nil, err
	}
	back, err := v.Invert()
	if err != nil {
		return nil, fmt.Errorf("schematx: %s: invert: %w", v.Name, err)
	}
	if got := Dump(back); !bytes.Equal(got, want) {
		return nil, fmt.Errorf("schematx: %s: round trip diverges: %s", v.Name, dumpDiff(want, got))
	}
	return v, nil
}

// dumpDiff summarizes the first divergence between two canonical dumps.
func dumpDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("dump lengths differ: want %d lines, got %d", len(w), len(g))
}

// finish validates a variant's rewritten bias against its schema and
// target (arity checks, the every-mode-has-an-input rule) and proves it
// compiles — an invalid rewritten bias is a transform bug, not a
// learner concern.
func finish(v *Variant, src Source) (*Variant, error) {
	if err := v.Bias.Validate(v.DB.Schema(), src.Target, len(src.TargetAttrs)); err != nil {
		return nil, fmt.Errorf("schematx: %s: rewritten bias invalid: %w", v.Name, err)
	}
	if _, err := v.Bias.Compile(v.DB.Schema(), src.Target, len(src.TargetAttrs)); err != nil {
		return nil, fmt.Errorf("schematx: %s: rewritten bias does not compile: %w", v.Name, err)
	}
	return v, nil
}

// freshType returns want if no predicate definition (or target type)
// uses it yet, otherwise suffixes it until fresh. Surrogate-key types
// must not accidentally unify with an existing type: a shared type is a
// join permission.
func freshType(b *bias.Bias, want string) string {
	used := make(map[string]bool)
	for _, p := range b.Predicates {
		for _, t := range p.Types {
			used[t] = true
		}
	}
	name := want
	for i := 2; used[name]; i++ {
		name = fmt.Sprintf("%s_%d", want, i)
	}
	return name
}

// freshAttr returns want if no attribute in taken uses it, otherwise
// suffixes it until fresh.
func freshAttr(taken []string, want string) string {
	used := make(map[string]bool, len(taken))
	for _, a := range taken {
		used[a] = true
	}
	name := want
	for i := 2; used[name]; i++ {
		name = fmt.Sprintf("%s_%d", want, i)
	}
	return name
}

// freshRelation errors when name already exists in the schema; variant
// relation names are derived from the source relation and must not
// collide.
func freshRelation(s *db.Schema, name string) error {
	if s.Relation(name) != nil {
		return fmt.Errorf("schematx: derived relation %q already exists in the schema", name)
	}
	return nil
}

// shareRelation copies a relation from one database into another. The
// tuples themselves are shared, not copied, which keeps variants cheap.
func shareRelation(dst, src *db.Database, name string) {
	if err := dst.Relation(name).InsertBatch(src.Relation(name).Snapshot()); err != nil {
		panic(err) // both sides hold the relation under the same schema
	}
}

// baseSchemaSpec records a schema's shape so Invert can rebuild it in
// the original registration order without holding the source database.
type baseSchemaSpec struct {
	names []string
	attrs map[string][]string
}

func specOf(s *db.Schema) baseSchemaSpec {
	spec := baseSchemaSpec{names: s.Names(), attrs: make(map[string][]string, s.Len())}
	for _, n := range spec.names {
		spec.attrs[n] = s.Relation(n).Attributes
	}
	return spec
}

func (spec baseSchemaSpec) build() *db.Schema {
	s := db.NewSchema()
	for _, n := range spec.names {
		s.MustAdd(n, spec.attrs[n]...)
	}
	return s
}

// hasInput reports whether any of the symbols is a +.
func hasInput(syms []bias.ModeSymbol) bool {
	for _, s := range syms {
		if s == bias.Input {
			return true
		}
	}
	return false
}

// modeSet accumulates mode definitions with deduplication: transforms
// derive several candidate modes per source mode and many coincide.
type modeSet struct {
	modes []bias.ModeDef
	seen  map[string]bool
}

func newModeSet() *modeSet {
	return &modeSet{seen: make(map[string]bool)}
}

func (ms *modeSet) add(rel string, syms ...bias.ModeSymbol) {
	m := bias.ModeDef{Relation: rel, Symbols: syms}
	key := m.String()
	if ms.seen[key] {
		return
	}
	ms.seen[key] = true
	ms.modes = append(ms.modes, m)
}

func (ms *modeSet) keep(m bias.ModeDef) { ms.add(m.Relation, m.Symbols...) }
