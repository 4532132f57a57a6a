package logic

import "strings"

// Clause is a Horn clause: exactly one positive head literal and a
// conjunctive body (paper Definition 2.1). The body is ordered; order
// matters for armg's blocking-atom semantics (paper §2.3.2).
type Clause struct {
	Head Literal
	Body []Literal
}

// Clone returns a deep copy of the clause.
func (c *Clause) Clone() *Clause {
	out := &Clause{Head: c.Head.Clone(), Body: make([]Literal, len(c.Body))}
	for i, l := range c.Body {
		out.Body[i] = l.Clone()
	}
	return out
}

// Apply returns a new clause with substitution s applied throughout.
func (c *Clause) Apply(s Substitution) *Clause {
	out := &Clause{Head: c.Head.Apply(s), Body: make([]Literal, len(c.Body))}
	for i, l := range c.Body {
		out.Body[i] = l.Apply(s)
	}
	return out
}

// Variables returns the variable names appearing in the clause, in first
// occurrence order (head first, then body left to right).
func (c *Clause) Variables() []string {
	var vars []string
	var seen map[string]bool
	vars, seen = c.Head.Variables(vars, seen)
	for _, l := range c.Body {
		vars, seen = l.Variables(vars, seen)
	}
	return vars
}

// Length returns the number of body literals.
func (c *Clause) Length() int { return len(c.Body) }

// IsGround reports whether the clause contains no variables.
func (c *Clause) IsGround() bool {
	if !c.Head.IsGround() {
		return false
	}
	for _, l := range c.Body {
		if !l.IsGround() {
			return false
		}
	}
	return true
}

// Equal reports whether two clauses are syntactically identical (same
// head, same body literals in the same order).
func (c *Clause) Equal(o *Clause) bool {
	if !c.Head.Equal(o.Head) || len(c.Body) != len(o.Body) {
		return false
	}
	for i := range c.Body {
		if !c.Body[i].Equal(o.Body[i]) {
			return false
		}
	}
	return true
}

// HeadConnected returns the subset of the body that is head-connected: a
// literal is head-connected if it shares a variable with the head or with
// another head-connected literal (paper §4.2.1). Order is preserved.
// Ground literals (all constants) are never head-connected and are
// dropped; they carry no generalization value.
func (c *Clause) HeadConnected() []Literal {
	connected := make(map[string]bool)
	for _, t := range c.Head.Terms {
		if t.IsVar() {
			connected[t.Name] = true
		}
	}
	kept := make([]bool, len(c.Body))
	// Fixed point: keep adding literals that touch the connected set.
	for changed := true; changed; {
		changed = false
		for i, l := range c.Body {
			if kept[i] {
				continue
			}
			touches := false
			for _, t := range l.Terms {
				if t.IsVar() && connected[t.Name] {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			kept[i] = true
			changed = true
			for _, t := range l.Terms {
				if t.IsVar() {
					connected[t.Name] = true
				}
			}
		}
	}
	out := make([]Literal, 0, len(c.Body))
	for i, l := range c.Body {
		if kept[i] {
			out = append(out, l)
		}
	}
	return out
}

// PruneNotHeadConnected returns a copy of the clause whose body contains
// only head-connected literals.
func (c *Clause) PruneNotHeadConnected() *Clause {
	return &Clause{Head: c.Head.Clone(), Body: c.HeadConnected()}
}

// Definition is a set of clauses sharing a head predicate (paper
// Definition 2.2). An example is covered when at least one clause covers
// it.
type Definition struct {
	// Target is the head predicate of every clause.
	Target  string
	Clauses []*Clause
}

// Add appends a clause to the definition.
func (d *Definition) Add(c *Clause) {
	if d.Target == "" {
		d.Target = c.Head.Predicate
	}
	d.Clauses = append(d.Clauses, c)
}

// Len returns the number of clauses.
func (d *Definition) Len() int { return len(d.Clauses) }

// String renders one clause per line.
func (d *Definition) String() string {
	lines := make([]string, len(d.Clauses))
	for i, c := range d.Clauses {
		lines[i] = c.String()
	}
	return strings.Join(lines, "\n")
}
