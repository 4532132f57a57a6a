// Package logic implements the first-order logic layer used by the
// relational learner: terms, literals, Horn clauses and definitions, plus
// substitutions and the structural operations (head-connectedness,
// canonical renaming) that the learning algorithms in the paper rely on.
//
// Learned definitions are non-recursive Datalog programs without negation
// (paper §2.1): a Definition is a set of Clauses with the same head
// predicate, and each Clause is a Horn clause with exactly one positive
// (head) literal.
package logic

import "strings"

// TermKind distinguishes variables from constants.
type TermKind uint8

const (
	// KindConstant marks a term holding a database value.
	KindConstant TermKind = iota
	// KindVariable marks an (implicitly existentially quantified) variable.
	KindVariable
)

// Term is a variable or a constant appearing in a literal. The zero value
// is the empty constant.
type Term struct {
	Kind TermKind
	// Name is the variable name or the constant value.
	Name string
}

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{Kind: KindVariable, Name: name} }

// Const returns a constant term with the given value.
func Const(value string) Term { return Term{Kind: KindConstant, Name: value} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == KindVariable }

// IsConst reports whether the term is a constant.
func (t Term) IsConst() bool { return t.Kind == KindConstant }

// Substitution maps variable names to terms. Applying a substitution
// replaces each bound variable by its image; unbound variables and
// constants are left intact.
type Substitution map[string]Term

// Apply returns the image of t under s.
func (s Substitution) Apply(t Term) Term {
	if t.Kind == KindVariable {
		if img, ok := s[t.Name]; ok {
			return img
		}
	}
	return t
}

// Bind records that variable v maps to term t. It reports false when v is
// already bound to a different term (so callers can use it for matching).
func (s Substitution) Bind(v string, t Term) bool {
	if cur, ok := s[v]; ok {
		return cur == t
	}
	s[v] = t
	return true
}

// Clone returns an independent copy of s.
func (s Substitution) Clone() Substitution {
	c := make(Substitution, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s Substitution) String() string {
	if len(s) == 0 {
		return "{}"
	}
	parts := make([]string, 0, len(s))
	for k, v := range s {
		parts = append(parts, k+"->"+v.String())
	}
	sortStrings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

// sortStrings is a tiny insertion sort used for deterministic printing of
// small sets without importing sort in every file.
func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
