package subsume

import (
	"strings"

	"repro/internal/logic"
)

// Reduce returns a θ-reduction of c (Plotkin): each body literal L in
// turn is dropped when the clause as reduced so far θ-subsumes itself
// without L — checked by freezing that rest's variables into constants
// that occur nowhere in c and testing the clause against the frozen rest
// as a ground clause. A check that exhausts opts' budget keeps L. Every
// clause Reduce returns is θ-equivalent to c, so it subsumes exactly the
// ground clauses c does: no complete verdict changes, and a search the
// unreduced clause ran out of budget on may now finish. When every check
// is complete the result is c's unique reduced form (up to renaming),
// since a literal the pass keeps stays irredundant as the clause shrinks.
func Reduce(c *logic.Clause, opts Options) *logic.Clause {
	frozen := freezer(c)
	for i := 0; i < len(c.Body); {
		rest := &logic.Clause{Head: c.Head, Body: append(c.Body[:i:i], c.Body[i+1:]...)}
		if CheckCompiled(c, CompileGround(nil, rest.Apply(frozen)), opts).Subsumes {
			c = rest
		} else {
			i++
		}
	}
	return c
}

// freezer maps every variable of c to a constant named by a prefix no
// constant of c starts with, so the frozen names collide with nothing.
// One pass finds it: a constant that does not start with a prefix does
// not start with any longer one.
func freezer(c *logic.Clause) logic.Substitution {
	prefix := "$"
	for _, l := range append([]logic.Literal{c.Head}, c.Body...) {
		for _, t := range l.Terms {
			for t.IsConst() && strings.HasPrefix(t.Name, prefix) {
				prefix += "$"
			}
		}
	}
	s := logic.Substitution{}
	for _, v := range c.Variables() {
		s[v] = logic.Const(prefix + v)
	}
	return s
}
