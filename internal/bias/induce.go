package bias

import (
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/ind"
	"repro/internal/metrics"
)

// ConstantThreshold is the hyper-parameter deciding which attributes may
// appear as constants (§3.2). Relative thresholds compare the ratio of
// distinct values to relation size; absolute thresholds compare the
// distinct-value count directly.
type ConstantThreshold struct {
	Value    float64
	Relative bool
}

// DefaultConstantThreshold is the paper's experimental setting: 18%
// relative (§6.1).
var DefaultConstantThreshold = ConstantThreshold{Value: 0.18, Relative: true}

// allows reports whether the attribute may be a constant under the
// threshold.
func (ct ConstantThreshold) allows(rel *db.Relation, attr int) bool {
	if rel.Len() == 0 {
		return false
	}
	distinct := rel.DistinctCount(attr)
	if ct.Relative {
		return float64(distinct)/float64(rel.Len()) <= ct.Value
	}
	return float64(distinct) <= ct.Value
}

// DefaultApproxError is the paper's approximate-IND error cutoff (§3.1).
const DefaultApproxError = 0.5

// The induced bias's size caps: this repository's, not the paper's.
const (
	// maxConstantAttrs caps how many constant-able attributes per
	// relation enter the powerset of §3.2 (the attributes with the fewest
	// distinct values win).
	maxConstantAttrs = 8
	// maxPredicateDefs caps the Cartesian product of attribute types per
	// relation.
	maxPredicateDefs = 64
)

// InduceOptions configures AutoBias induction.
type InduceOptions struct {
	// INDs are precomputed unary INDs over the database extended with the
	// target pseudo-relation. When nil, Induce discovers them with
	// ApproxError as the cutoff.
	INDs []ind.IND
	// ApproxError is the approximate-IND error rate. Values <= 0 select
	// DefaultApproxError.
	ApproxError float64
	// Threshold is the constant-threshold; the zero value selects
	// DefaultConstantThreshold.
	Threshold ConstantThreshold
	// Metrics, when non-nil, receives the bias.induce span and the IND
	// discovery counters (when INDs are not precomputed).
	Metrics *metrics.Collector
}

func (o *InduceOptions) normalize() {
	if o.ApproxError <= 0 {
		o.ApproxError = DefaultApproxError
	}
	if o.Threshold == (ConstantThreshold{}) {
		o.Threshold = DefaultConstantThreshold
	}
}

// Result bundles an induced bias with the type graph that produced it,
// for inspection and for rendering the paper's Figure 1.
type Result struct {
	Bias  *Bias
	Graph *TypeGraph
	// INDs are the dependencies the graph was built from.
	INDs []ind.IND
}

// Induce generates a language bias for learning the target relation over
// d, implementing §3 end to end: the positive examples form a
// pseudo-relation so the target's attribute types are induced alongside
// the schema's; exact and approximate INDs are discovered (or taken from
// opts); Algorithm 3 assigns types; predicate definitions are the
// Cartesian products of attribute types; and mode definitions allow every
// attribute to be a variable with one + per definition, plus constant (#)
// variants for attributes under the constant-threshold.
func Induce(d *db.Database, target string, targetAttrs []string, positives []db.Tuple, opts InduceOptions) (*Result, error) {
	opts.normalize()
	spanStart := opts.Metrics.StartSpan()
	defer opts.Metrics.EndSpan(metrics.SpanBiasInduce, spanStart)
	if len(positives) == 0 {
		return nil, fmt.Errorf("bias: induction needs at least one positive example for %s", target)
	}
	ext, err := db.Extend(d, target, targetAttrs, positives)
	if err != nil {
		return nil, fmt.Errorf("bias: %w", err)
	}
	inds := opts.INDs
	if inds == nil {
		inds = ind.Discover(ext, ind.Options{MaxError: opts.ApproxError, Metrics: opts.Metrics})
	}
	graph := BuildTypeGraph(ext.Schema(), inds)

	b := &Bias{}
	for _, relName := range ext.Schema().Names() {
		rs := ext.Schema().Relation(relName)
		typesPer := make([][]string, rs.Arity())
		for i := range typesPer {
			typesPer[i] = graph.Types[ind.AttrID{Relation: relName, Attr: i}]
			if len(typesPer[i]) == 0 {
				return nil, fmt.Errorf("bias: internal: attribute %s[%d] has no type", relName, i)
			}
		}
		b.Predicates = append(b.Predicates, cartesianPredicates(relName, typesPer, maxPredicateDefs)...)
	}

	for _, relName := range d.Schema().Names() {
		rel := d.Relation(relName)
		b.Modes = append(b.Modes, generateModes(rel, opts.Threshold, maxConstantAttrs)...)
	}
	return &Result{Bias: b, Graph: graph, INDs: inds}, nil
}

// cartesianPredicates enumerates the Cartesian product of per-attribute
// type sets as predicate definitions, capped at max definitions.
func cartesianPredicates(rel string, typesPer [][]string, max int) []PredicateDef {
	out := []PredicateDef{}
	idx := make([]int, len(typesPer))
	for {
		types := make([]string, len(typesPer))
		for i, j := range idx {
			types[i] = typesPer[i][j]
		}
		out = append(out, PredicateDef{Relation: rel, Types: types})
		if len(out) >= max {
			return out
		}
		// Advance the mixed-radix counter.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(typesPer[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// generateModes produces the mode definitions of §3.2 for one relation:
// for every attribute A, a definition with + on A and − elsewhere; and
// for every non-empty strict subset M of the constant-able attributes,
// the same patterns with # on M.
func generateModes(rel *db.Relation, ct ConstantThreshold, maxConstAttrs int) []ModeDef {
	arity := rel.Schema.Arity()
	name := rel.Schema.Name

	var constAttrs []int
	for i := 0; i < arity; i++ {
		if ct.allows(rel, i) {
			constAttrs = append(constAttrs, i)
		}
	}
	if len(constAttrs) > maxConstAttrs {
		// Keep the attributes with the fewest distinct values: they make
		// the most selective constants.
		sort.Slice(constAttrs, func(i, j int) bool {
			di, dj := rel.DistinctCount(constAttrs[i]), rel.DistinctCount(constAttrs[j])
			if di != dj {
				return di < dj
			}
			return constAttrs[i] < constAttrs[j]
		})
		constAttrs = constAttrs[:maxConstAttrs]
		sort.Ints(constAttrs)
	}

	var out []ModeDef
	emit := func(constSet map[int]bool) {
		for plus := 0; plus < arity; plus++ {
			if constSet[plus] {
				continue
			}
			m := ModeDef{Relation: name, Symbols: make([]ModeSymbol, arity)}
			for i := 0; i < arity; i++ {
				switch {
				case i == plus:
					m.Symbols[i] = Input
				case constSet[i]:
					m.Symbols[i] = Constant
				default:
					m.Symbols[i] = Output
				}
			}
			out = append(out, m)
		}
	}
	emit(nil)
	// Non-empty subsets of constAttrs, excluding the full attribute set
	// (a mode needs at least one non-# position for its +).
	for mask := 1; mask < 1<<len(constAttrs); mask++ {
		set := make(map[int]bool)
		for bit, attr := range constAttrs {
			if mask&(1<<bit) != 0 {
				set[attr] = true
			}
		}
		if len(set) == arity {
			continue
		}
		emit(set)
	}
	return out
}

// CastorDefault builds the paper's "Castor" baseline bias (§6.1): every
// attribute of every relation shares one type, and every attribute may be
// a variable or a constant. This admits the largest hypothesis space and
// is the configuration that fails to scale in Table 5.
func CastorDefault(schema *db.Schema, target string, targetArity int) *Bias {
	b := sharedTypeBias(schema, target, targetArity)
	for _, relName := range schema.Names() {
		arity := schema.Relation(relName).Arity()
		// Every attribute can be a constant: full powerset of # positions
		// around each + slot.
		for mask := 0; mask < 1<<arity; mask++ {
			for plus := 0; plus < arity; plus++ {
				if mask&(1<<plus) != 0 {
					continue
				}
				m := ModeDef{Relation: relName, Symbols: make([]ModeSymbol, arity)}
				for i := 0; i < arity; i++ {
					switch {
					case i == plus:
						m.Symbols[i] = Input
					case mask&(1<<i) != 0:
						m.Symbols[i] = Constant
					default:
						m.Symbols[i] = Output
					}
				}
				b.Modes = append(b.Modes, m)
			}
		}
	}
	return b
}

// NoConstants builds the paper's "No const." baseline (§6.1): one shared
// type, variables only.
func NoConstants(schema *db.Schema, target string, targetArity int) *Bias {
	b := sharedTypeBias(schema, target, targetArity)
	for _, relName := range schema.Names() {
		arity := schema.Relation(relName).Arity()
		for plus := 0; plus < arity; plus++ {
			m := ModeDef{Relation: relName, Symbols: make([]ModeSymbol, arity)}
			for i := range m.Symbols {
				m.Symbols[i] = Output
			}
			m.Symbols[plus] = Input
			b.Modes = append(b.Modes, m)
		}
	}
	return b
}

func sharedTypeBias(schema *db.Schema, target string, targetArity int) *Bias {
	b := &Bias{}
	one := func(arity int) []string {
		types := make([]string, arity)
		for i := range types {
			types[i] = "T0"
		}
		return types
	}
	for _, relName := range schema.Names() {
		b.Predicates = append(b.Predicates, PredicateDef{Relation: relName, Types: one(schema.Relation(relName).Arity())})
	}
	b.Predicates = append(b.Predicates, PredicateDef{Relation: target, Types: one(targetArity)})
	return b
}
