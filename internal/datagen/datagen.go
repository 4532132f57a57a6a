// Package datagen generates the five evaluation datasets of §6.1 —
// UW, HIV, IMDb, FLT and SYS — as deterministic synthetic equivalents.
// Each generator reproduces the paper dataset's schema shape, relative
// relation cardinalities, target-concept structure and example ratios;
// absolute sizes are scaled down (see DESIGN.md §2-3 for the
// substitution rationale) and controlled by Config.Scale.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/bias"
	"repro/internal/db"
	"repro/internal/logic"
)

// Config controls dataset generation.
type Config struct {
	// Scale multiplies entity counts; <=0 selects 1.0 (the default sizes
	// in DESIGN.md §3).
	Scale float64
	// Seed makes generation deterministic; 0 selects 1.
	Seed int64
}

// Normalized returns c with its defaults filled in: two configs that
// normalize equal generate the same dataset.
func (c Config) Normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// scaled returns n scaled, with a floor of min.
func (c Config) scaled(n int, min int) int {
	v := int(float64(n) * c.Scale)
	if v < min {
		return min
	}
	return v
}

// TupleSink receives generated tuples. *db.Database satisfies it (the
// in-memory path); db.CSVStreamWriter satisfies it for the streamed
// million-tuple path, where materializing the database would defeat
// memory-bounded generation.
type TupleSink interface {
	MustInsert(relation string, values ...string)
}

// SinkFactory builds the sink a generator writes into, given the
// dataset's schema (known before the first tuple). Returning an error
// aborts generation before any tuple is produced.
type SinkFactory func(*db.Schema) (TupleSink, error)

// dedupSink drops exact duplicate rows within a relation. Generators
// draw entity links at random, so bulk relations (taughtBy, genre,
// inRing, event, ...) would otherwise contain duplicate tuples —
// multiset rows that a relation, and the CSV loader (db.LoadCSVDir),
// both reject: a duplicate row silently double-counts coverage and
// value frequencies. Deduplication happens after the RNG draw, so it
// never shifts the random stream: the surviving tuples are identical
// between the in-memory and streamed paths at the same seed and scale.
//
// Rows are tracked as 64-bit FNV-1a hashes (8 bytes/row instead of the
// row text) to keep million-tuple generation memory-bounded; a hash
// collision would drop one legitimate row, with probability ≈ n²/2⁶⁵ —
// about 10⁻⁶ at 10M rows — and deterministically for a given seed.
type dedupSink struct {
	sink TupleSink
	seen map[string]map[uint64]struct{}
}

func newDedupSink(sink TupleSink) *dedupSink {
	return &dedupSink{sink: sink, seen: make(map[string]map[uint64]struct{})}
}

func (d *dedupSink) MustInsert(relation string, values ...string) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, v := range values {
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= prime64
		}
		h ^= 0x1f // unit separator: ("ab","c") and ("a","bc") differ
		h *= prime64
	}
	set := d.seen[relation]
	if set == nil {
		set = make(map[uint64]struct{})
		d.seen[relation] = set
	}
	if _, dup := set[h]; dup {
		return
	}
	set[h] = struct{}{}
	d.sink.MustInsert(relation, values...)
}

// Dataset is a generated learning task: database, examples, the expert
// ("Manual") language bias, and provenance.
type Dataset struct {
	Name        string
	DB          *db.Database
	Target      string
	TargetAttrs []string
	Pos, Neg    []logic.Literal
	// Manual is the expert-written language bias used by the paper's
	// Manual and Aleph configurations.
	Manual *bias.Bias
	// TrueDefinition documents the generating concept in Datalog.
	TrueDefinition string
}

// TargetArity returns the arity of the target relation.
func (d *Dataset) TargetArity() int { return len(d.TargetAttrs) }

// rowBuffer collects generated rows per relation, so Generate loads each
// relation with one batch insert — one published version — rather than
// one per tuple.
type rowBuffer map[string][]db.Tuple

func (b rowBuffer) MustInsert(relation string, values ...string) {
	b[relation] = append(b[relation], values)
}

// Generate builds the named dataset ("uw", "hiv", "imdb", "flt", "sys")
// in memory.
func Generate(name string, cfg Config) (*Dataset, error) {
	var d *db.Database
	rows := rowBuffer{}
	ds, err := GenerateTo(name, cfg, func(s *db.Schema) (TupleSink, error) {
		d = db.New(s)
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for rel, ts := range rows {
		r := d.Relation(rel)
		if r == nil {
			return nil, fmt.Errorf("datagen: %s: unknown relation %q", name, rel)
		}
		if err := r.InsertBatch(ts); err != nil {
			return nil, fmt.Errorf("datagen: %s: %w", name, err)
		}
	}
	ds.DB = d
	return ds, nil
}

// GenerateTo streams the named dataset's tuples into a caller-provided
// sink instead of materializing a database: the returned Dataset carries
// the examples, bias and provenance but a nil DB. This is the
// million-tuple path — pair it with db.NewCSVStreamWriter to write
// relations to disk with bounded memory (see cmd/datasetgen -stream).
// Tuples arrive deduplicated and in a deterministic order for a given
// (name, Scale, Seed), identical to the in-memory path's.
func GenerateTo(name string, cfg Config, mk SinkFactory) (*Dataset, error) {
	switch name {
	case "uw":
		return generateUW(cfg, mk)
	case "hiv":
		return generateHIV(cfg, mk)
	case "imdb":
		return generateIMDb(cfg, mk)
	case "flt":
		return generateFLT(cfg, mk)
	case "sys":
		return generateSYS(cfg, mk)
	}
	return nil, fmt.Errorf("datagen: unknown dataset %q", name)
}

// mustGenerate adapts the in-memory path for the exported per-dataset
// constructors; generation of a known dataset into a database cannot
// fail.
func mustGenerate(name string, cfg Config) *Dataset {
	ds, err := Generate(name, cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

// Names lists the datasets in the paper's Table 5 order.
func Names() []string { return []string{"uw", "imdb", "hiv", "flt", "sys"} }

// example builds a ground target literal.
func example(target string, vals ...string) logic.Literal {
	terms := make([]logic.Term, len(vals))
	for i, v := range vals {
		terms[i] = logic.Const(v)
	}
	return logic.Literal{Predicate: target, Terms: terms}
}

// pick returns a uniformly random element.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// id formats a prefixed zero-padded identifier, e.g. id("stud", 7) ==
// "stud_0007". Prefixes keep unrelated value domains disjoint so IND
// discovery finds only the intended dependencies.
func id(prefix string, n int) string { return fmt.Sprintf("%s_%04d", prefix, n) }
