package logic

import (
	"strconv"
	"sync"
)

// One renderer (DESIGN.md §18): Term.String, Literal.String,
// Clause.String and Clause.Key all append through appendTerm,
// appendLiteral and appendClause. A canonical key is the clause's Datalog
// text with its variables renamed V0, V1, ... in first-occurrence order
// (head first, then body left to right), rendered in one pass: no renamed
// copy of the clause is built. Its bytes are a contract — the store keys
// verdicts by them and the beam breaks score ties by them — so they must
// stay exactly what renaming the clause and printing it gives.

// renderer is the scratch a clause rendering reuses: the buffer the text
// is appended to and, for a key, the renaming of the clause's variables to
// their first-occurrence numbers (which HeadConnected reuses). A variable spelled V<n> — how the bottom
// builder names every variable, and so nearly every variable the learner
// sees — finds its number at num[n]-1 (0: not seen yet) without hashing
// its name; any other name goes through named.
type renderer struct {
	buf     []byte
	next    int32
	num     []int32
	touched []int32 // the num slots this rendering set
	named   map[string]int32
}

var renderers = sync.Pool{New: func() any { return &renderer{named: make(map[string]int32)} }}

// render returns c's text, canonical when key is set, at one allocation:
// the returned string.
func render(c *Clause, key bool) string {
	r := renderers.Get().(*renderer)
	ren := r
	if !key {
		ren = nil
	}
	r.buf = appendClause(r.buf[:0], c, ren)
	s := string(r.buf)
	r.release()
	return s
}

// release forgets the renaming and returns r to the pool.
func (r *renderer) release() {
	for _, n := range r.touched {
		r.num[n] = 0
	}
	r.next, r.touched = 0, r.touched[:0]
	if len(r.named) > 0 {
		clear(r.named)
	}
	renderers.Put(r)
}

// number returns the first-occurrence number of the variable name,
// giving it the next one on first sight.
func (r *renderer) number(name string) int32 {
	if n, ok := vNumber(name); ok {
		if n >= len(r.num) {
			r.num = append(r.num, make([]int32, n+1-len(r.num))...)
		}
		if r.num[n] == 0 {
			r.next++
			r.num[n] = r.next
			r.touched = append(r.touched, int32(n))
		}
		return r.num[n] - 1
	}
	id, ok := r.named[name]
	if !ok {
		id = r.next
		r.next++
		r.named[name] = id
	}
	return id
}

// vNumber parses a name spelled V<n>, n in canonical decimal below 2^16;
// every other name reports false.
func vNumber(name string) (int, bool) {
	if len(name) < 2 || len(name) > 6 || name[0] != 'V' || name[1] == '0' && len(name) > 2 {
		return 0, false
	}
	n := 0
	for i := 1; i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, n < 1<<16
}

// Key returns a canonical string for the clause modulo variable renaming:
// two clauses share a key exactly when one is the other with its
// variables renamed.
func (c *Clause) Key() string { return render(c, true) }

// String renders the clause in Datalog syntax:
//
//	head(x,y) :- b1(x,z), b2(z,y).
func (c *Clause) String() string { return render(c, false) }

// String renders the literal in Datalog syntax.
func (l Literal) String() string {
	var buf [128]byte
	return string(appendLiteral(buf[:0], l, nil))
}

// String renders the term in Datalog syntax. Variables print as-is;
// constants print as-is when they look like plain identifiers or numbers
// and double-quoted otherwise, so that parsing round-trips.
func (t Term) String() string {
	if t.Kind == KindVariable || isPlainConstant(t.Name) {
		return t.Name
	}
	var buf [64]byte
	return string(appendTerm(buf[:0], t, nil))
}

// appendClause appends c's text to dst. A non-nil ren renames each
// variable to V<n>, n its first-occurrence number.
func appendClause(dst []byte, c *Clause, ren *renderer) []byte {
	dst = appendLiteral(dst, c.Head, ren)
	if len(c.Body) > 0 {
		dst = append(dst, " :- "...)
		for i, l := range c.Body {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendLiteral(dst, l, ren)
		}
	}
	return append(dst, '.')
}

func appendLiteral(dst []byte, l Literal, ren *renderer) []byte {
	dst = append(dst, l.Predicate...)
	dst = append(dst, '(')
	for i, t := range l.Terms {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendTerm(dst, t, ren)
	}
	return append(dst, ')')
}

func appendTerm(dst []byte, t Term, ren *renderer) []byte {
	switch {
	case t.Kind == KindVariable && ren != nil:
		switch n := ren.number(t.Name); {
		case n < 10:
			return append(dst, 'V', byte('0'+n))
		case n < 100:
			return append(dst, 'V', byte('0'+n/10), byte('0'+n%10))
		default:
			return strconv.AppendInt(append(dst, 'V'), int64(n), 10)
		}
	case t.Kind == KindVariable || isPlainConstant(t.Name):
		return append(dst, t.Name...)
	}
	// Quote, escaping only backslash and quote, so that arbitrary
	// (non-control) values round-trip through the clause parser.
	dst = append(dst, '"')
	for i := 0; i < len(t.Name); i++ {
		if c := t.Name[i]; c == '"' || c == '\\' {
			dst = append(dst, '\\')
		}
		dst = append(dst, t.Name[i])
	}
	return append(dst, '"')
}

// isPlainConstant reports whether v can be printed unquoted and still be
// re-read as a constant: non-empty, starts with a lowercase letter or
// digit, and contains only identifier-ish characters.
func isPlainConstant(v string) bool {
	if v == "" {
		return false
	}
	c := v[0]
	if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9') {
		return false
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '_', c == '.', c == '-', c == ':', c == '/':
		default:
			return false
		}
	}
	return true
}
