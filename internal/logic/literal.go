package logic

import "strings"

// Literal is an atom R(t1, ..., tn). The learner only manipulates positive
// literals: learned programs are Datalog without negation (paper §2.1).
type Literal struct {
	Predicate string
	Terms     []Term
}

// NewLiteral builds a literal from a predicate name and terms.
func NewLiteral(pred string, terms ...Term) Literal {
	return Literal{Predicate: pred, Terms: terms}
}

// Arity returns the number of terms.
func (l Literal) Arity() int { return len(l.Terms) }

// Apply returns the literal with substitution s applied to every term.
func (l Literal) Apply(s Substitution) Literal {
	out := Literal{Predicate: l.Predicate, Terms: make([]Term, len(l.Terms))}
	for i, t := range l.Terms {
		out.Terms[i] = s.Apply(t)
	}
	return out
}

// Clone returns a deep copy of the literal.
func (l Literal) Clone() Literal {
	out := Literal{Predicate: l.Predicate, Terms: make([]Term, len(l.Terms))}
	copy(out.Terms, l.Terms)
	return out
}

// Equal reports whether two literals are syntactically identical.
func (l Literal) Equal(o Literal) bool {
	if l.Predicate != o.Predicate || len(l.Terms) != len(o.Terms) {
		return false
	}
	for i := range l.Terms {
		if l.Terms[i] != o.Terms[i] {
			return false
		}
	}
	return true
}

// IsGround reports whether the literal contains no variables.
func (l Literal) IsGround() bool {
	for _, t := range l.Terms {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Variables appends the names of the variables in l to dst, deduplicated
// against the seen set (which is updated). Pass nil maps/slices to start.
func (l Literal) Variables(dst []string, seen map[string]bool) ([]string, map[string]bool) {
	if seen == nil {
		seen = make(map[string]bool)
	}
	for _, t := range l.Terms {
		if t.IsVar() && !seen[t.Name] {
			seen[t.Name] = true
			dst = append(dst, t.Name)
		}
	}
	return dst, seen
}

// Key returns a string that uniquely identifies the literal, usable as a
// map key for deduplication.
func (l Literal) Key() string {
	n := len(l.Predicate) + 2
	for _, t := range l.Terms {
		n += len(t.Name) + 2
	}
	var b strings.Builder
	b.Grow(n) // at least the key's length: one allocation, no regrowth
	b.WriteString(l.Predicate)
	b.WriteByte('(')
	for i, t := range l.Terms {
		if i > 0 {
			b.WriteByte(',')
		}
		if t.IsVar() {
			b.WriteByte('?')
		} else {
			b.WriteByte('=')
		}
		b.WriteString(t.Name)
	}
	b.WriteByte(')')
	return b.String()
}

// SharesVariable reports whether l and o have at least one variable in
// common.
func (l Literal) SharesVariable(o Literal) bool {
	for _, t := range l.Terms {
		if !t.IsVar() {
			continue
		}
		for _, u := range o.Terms {
			if u.IsVar() && u.Name == t.Name {
				return true
			}
		}
	}
	return false
}
