// Package bias implements the language-bias model of the paper (§2.2) and
// AutoBias, the paper's primary contribution (§3): automatic induction of
// predicate and mode definitions from database constraints and content.
//
// A language bias is a set of predicate definitions — which assign one or
// more types to every attribute, restricting which attributes may be
// joined — and mode definitions, which constrain each attribute of a
// candidate literal to be an existing variable (+), any variable (−), or
// a constant (#).
package bias

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/db"
)

// ModeSymbol is the role a mode definition assigns to one attribute.
type ModeSymbol uint8

const (
	// Input (+) requires an existing variable: one already bound in a
	// previously added literal.
	Input ModeSymbol = iota
	// Output (−) allows an existing or a new variable.
	Output
	// Constant (#) requires a database constant.
	Constant
)

// String renders the mode symbol in the conventional +/−/# notation.
func (m ModeSymbol) String() string {
	switch m {
	case Input:
		return "+"
	case Output:
		return "-"
	case Constant:
		return "#"
	}
	return "?"
}

// PredicateDef assigns one type per attribute of a relation (paper
// §2.2.1). A relation may have several predicate definitions; an
// attribute's type set is the union across them.
type PredicateDef struct {
	Relation string
	Types    []string
}

func (p PredicateDef) String() string {
	return p.Relation + "(" + strings.Join(p.Types, ",") + ")"
}

// ModeDef assigns one mode symbol per attribute of a relation (§2.2.2).
type ModeDef struct {
	Relation string
	Symbols  []ModeSymbol
}

func (m ModeDef) String() string {
	parts := make([]string, len(m.Symbols))
	for i, s := range m.Symbols {
		parts[i] = s.String()
	}
	return m.Relation + "(" + strings.Join(parts, ",") + ")"
}

// HasInput reports whether the mode has at least one + symbol; modes
// without one would admit Cartesian products (§2.2.2).
func (m ModeDef) HasInput() bool {
	for _, s := range m.Symbols {
		if s == Input {
			return true
		}
	}
	return false
}

// Bias is a complete language bias: predicate plus mode definitions.
type Bias struct {
	Predicates []PredicateDef
	Modes      []ModeDef
}

// Size returns the total number of definitions, the quantity the paper
// reports when comparing manual and induced biases (§6.2).
func (b *Bias) Size() int { return len(b.Predicates) + len(b.Modes) }

// String renders the bias in the two-section text format accepted by
// Parse.
func (b *Bias) String() string {
	var sb strings.Builder
	sb.WriteString("% predicate definitions\n")
	for _, p := range b.Predicates {
		sb.WriteString(p.String())
		sb.WriteByte('\n')
	}
	sb.WriteString("% mode definitions\n")
	for _, m := range b.Modes {
		sb.WriteString(m.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Parse reads a bias from its text form: one definition per line, e.g.
//
//	student(T1)
//	inPhase(T1,T2)
//	inPhase(+,-)
//	inPhase(+,#)
//
// Lines whose arguments are all mode symbols (+, -, #) are mode
// definitions; all other lines are predicate definitions. Blank lines and
// lines starting with '%' or '#' (as a full-line comment marker only when
// not of the form name(...)) are ignored.
func Parse(text string) (*Bias, error) {
	b := &Bias{}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		open := strings.IndexByte(line, '(')
		close := strings.LastIndexByte(line, ')')
		if open <= 0 || close <= open {
			return nil, fmt.Errorf("bias: line %d: %q is not name(arg,...)", lineNo+1, line)
		}
		name := strings.TrimSpace(line[:open])
		args := strings.Split(line[open+1:close], ",")
		for i := range args {
			args[i] = strings.TrimSpace(args[i])
		}
		if len(args) == 1 && args[0] == "" {
			return nil, fmt.Errorf("bias: line %d: %q has no arguments", lineNo+1, line)
		}
		if allModeSymbols(args) {
			m := ModeDef{Relation: name, Symbols: make([]ModeSymbol, len(args))}
			for i, a := range args {
				switch a {
				case "+":
					m.Symbols[i] = Input
				case "-":
					m.Symbols[i] = Output
				case "#":
					m.Symbols[i] = Constant
				}
			}
			b.Modes = append(b.Modes, m)
			continue
		}
		b.Predicates = append(b.Predicates, PredicateDef{Relation: name, Types: args})
	}
	return b, nil
}

// MustParse is Parse that panics on error, for static bias tables.
func MustParse(text string) *Bias {
	b, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return b
}

func allModeSymbols(args []string) bool {
	for _, a := range args {
		if a != "+" && a != "-" && a != "#" {
			return false
		}
	}
	return len(args) > 0
}

// Validate checks the bias against a schema (every relation exists with
// matching arity) and structural rules: every mode definition must
// contain at least one + symbol, except modes for the target relation
// (which is absent from the schema and validated by arity only).
func (b *Bias) Validate(schema *db.Schema, target string, targetArity int) error {
	arity := func(rel string) (int, error) {
		if rel == target {
			return targetArity, nil
		}
		rs := schema.Relation(rel)
		if rs == nil {
			return 0, fmt.Errorf("bias: unknown relation %q", rel)
		}
		return rs.Arity(), nil
	}
	for _, p := range b.Predicates {
		want, err := arity(p.Relation)
		if err != nil {
			return err
		}
		if len(p.Types) != want {
			return fmt.Errorf("bias: predicate definition %v has arity %d, want %d", p, len(p.Types), want)
		}
	}
	for _, m := range b.Modes {
		want, err := arity(m.Relation)
		if err != nil {
			return err
		}
		if len(m.Symbols) != want {
			return fmt.Errorf("bias: mode definition %v has arity %d, want %d", m, len(m.Symbols), want)
		}
		if m.Relation != target && !m.HasInput() {
			return fmt.Errorf("bias: mode definition %v has no + symbol; it would admit Cartesian products", m)
		}
	}
	return nil
}

// RelAttr identifies an attribute position of a relation.
type RelAttr struct {
	Relation string
	Attr     int
}

// Compiled is a bias indexed for fast use during bottom-clause
// construction: type lookups, joinable targets, mode enumeration.
type Compiled struct {
	bias   *Bias
	target string

	// attrTypes[rel][i] is the set of types of attribute i of rel.
	attrTypes map[string][]map[string]bool
	// typeLists[rel][i] is attrTypes[rel][i] as a sorted slice, built once
	// so TypesOf neither allocates nor sorts.
	typeLists map[string][][]string
	// modes[rel] lists the mode definitions of rel.
	modes map[string][]ModeDef
	// plusByType[T] lists attributes that carry type T and appear with a
	// + symbol in at least one mode: the lookup sites for a constant of
	// type T during BC construction (§2.3.1).
	plusByType map[string][]RelAttr
	// canConst[rel][i] reports whether some mode allows attribute i of
	// rel to be a constant.
	canConst map[string][]bool
}

// Compile indexes the bias for a schema and target relation. The bias
// must contain at least one predicate definition for the target (its
// head types seed BC construction).
func (b *Bias) Compile(schema *db.Schema, target string, targetArity int) (*Compiled, error) {
	if err := b.Validate(schema, target, targetArity); err != nil {
		return nil, err
	}
	c := &Compiled{
		bias:       b,
		target:     target,
		attrTypes:  make(map[string][]map[string]bool),
		modes:      make(map[string][]ModeDef),
		plusByType: make(map[string][]RelAttr),
		canConst:   make(map[string][]bool),
	}
	arity := func(rel string) int {
		if rel == target {
			return targetArity
		}
		return schema.Relation(rel).Arity()
	}
	for _, p := range b.Predicates {
		sets := c.attrTypes[p.Relation]
		if sets == nil {
			sets = make([]map[string]bool, arity(p.Relation))
			for i := range sets {
				sets[i] = make(map[string]bool)
			}
			c.attrTypes[p.Relation] = sets
		}
		for i, t := range p.Types {
			sets[i][t] = true
		}
	}
	if c.attrTypes[target] == nil {
		return nil, fmt.Errorf("bias: no predicate definition for target relation %q", target)
	}
	plusSeen := make(map[string]map[RelAttr]bool)
	for _, m := range b.Modes {
		c.modes[m.Relation] = append(c.modes[m.Relation], m)
		cc := c.canConst[m.Relation]
		if cc == nil {
			cc = make([]bool, arity(m.Relation))
			c.canConst[m.Relation] = cc
		}
		for i, s := range m.Symbols {
			if s == Constant {
				cc[i] = true
			}
			if s != Input || m.Relation == target {
				continue
			}
			types := c.attrTypes[m.Relation]
			if types == nil {
				return nil, fmt.Errorf("bias: mode %v for relation without predicate definition", m)
			}
			ra := RelAttr{Relation: m.Relation, Attr: i}
			for t := range types[i] {
				if plusSeen[t] == nil {
					plusSeen[t] = make(map[RelAttr]bool)
				}
				if !plusSeen[t][ra] {
					plusSeen[t][ra] = true
					c.plusByType[t] = append(c.plusByType[t], ra)
				}
			}
		}
	}
	c.typeLists = make(map[string][][]string, len(c.attrTypes))
	for rel, sets := range c.attrTypes {
		lists := make([][]string, len(sets))
		for i, set := range sets {
			lists[i] = make([]string, 0, len(set))
			for t := range set {
				lists[i] = append(lists[i], t)
			}
			sort.Strings(lists[i])
		}
		c.typeLists[rel] = lists
	}
	for t := range c.plusByType {
		sort.Slice(c.plusByType[t], func(i, j int) bool {
			a, b := c.plusByType[t][i], c.plusByType[t][j]
			if a.Relation != b.Relation {
				return a.Relation < b.Relation
			}
			return a.Attr < b.Attr
		})
	}
	return c, nil
}

// Target returns the target relation name.
func (c *Compiled) Target() string { return c.target }

// Bias returns the underlying bias.
func (c *Compiled) Bias() *Bias { return c.bias }

// TypesOf returns the (sorted) types of an attribute, or nil when the
// relation has no predicate definition. The slice is computed once by
// Compile and shared by every caller: it is read-only.
func (c *Compiled) TypesOf(rel string, attr int) []string {
	lists := c.typeLists[rel]
	if attr >= len(lists) {
		return nil
	}
	return lists[attr]
}

// SharesType reports whether two attributes share at least one type,
// i.e. whether the bias allows joining them.
func (c *Compiled) SharesType(aRel string, aAttr int, bRel string, bAttr int) bool {
	as := c.attrTypes[aRel]
	bs := c.attrTypes[bRel]
	if as == nil || bs == nil || aAttr >= len(as) || bAttr >= len(bs) {
		return false
	}
	for t := range as[aAttr] {
		if bs[bAttr][t] {
			return true
		}
	}
	return false
}

// PlusTargets returns the attributes a constant of the given types can be
// looked up in: attributes sharing one of the types that carry a + symbol
// in some mode. Results are deduplicated and deterministically ordered.
func (c *Compiled) PlusTargets(types []string) []RelAttr {
	seen := make(map[RelAttr]bool)
	var out []RelAttr
	for _, t := range types {
		for _, ra := range c.plusByType[t] {
			if !seen[ra] {
				seen[ra] = true
				out = append(out, ra)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Relation != out[j].Relation {
			return out[i].Relation < out[j].Relation
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// ModesFor returns the mode definitions of a relation.
func (c *Compiled) ModesFor(rel string) []ModeDef { return c.modes[rel] }

// CanBeConstant reports whether some mode allows the attribute to be a
// constant.
func (c *Compiled) CanBeConstant(rel string, attr int) bool {
	cc := c.canConst[rel]
	return cc != nil && attr < len(cc) && cc[attr]
}

// Relations returns the names of the relations that have at least one
// mode definition (the relations BC construction may add literals for),
// sorted.
func (c *Compiled) Relations() []string {
	out := make([]string, 0, len(c.modes))
	for r := range c.modes {
		if r != c.target {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}
