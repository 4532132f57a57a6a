package schematx

import (
	"fmt"

	"repro/internal/bias"
	"repro/internal/db"
)

// JoinDecompose dictionary-encodes one column of a relation through a
// surrogate key — the classic "pull a domain out into its own table"
// normalization. R(a0..an) with Attr = j becomes
//
//	R_jd(a0.., aj_ref, ..an)   R_dict(aj_ref, aj)
//
// where each distinct value of column j gets a reference
// "<rel>_<attr>_ref_%06d" in first-occurrence order. The reference gets
// a fresh type shared between the main relation and the dictionary.
//
// Bias rewrite per source mode, by the symbol at column j:
//
//   - Input: the frontier holds a value constant; the dictionary maps
//     it to a reference (dict gets -,+ read right-to-left: Output ref,
//     Input value) and the main mode keeps Input at j, now ref-typed.
//     One extra hop, same reach.
//   - Output: the main mode emits the reference (Output at j) and the
//     dictionary resolves it to the value (dict Input ref, Output
//     value).
//   - Constant: the concept names the value inline; the main mode
//     emits the reference (Output at j) and the dictionary pins the
//     constant (dict Input ref, Constant value).
type JoinDecompose struct {
	// Relation is the relation whose column is encoded.
	Relation string
	// Attr is the column index to dictionary-encode.
	Attr int
}

func (t JoinDecompose) Name() string {
	return fmt.Sprintf("joindecomp(%s@%d)", t.Relation, t.Attr)
}

func (t JoinDecompose) Apply(src Source) (*Variant, error) {
	base := src.DB
	rs := base.Schema().Relation(t.Relation)
	if rs == nil {
		return nil, fmt.Errorf("schematx: %s: relation %q not in schema", t.Name(), t.Relation)
	}
	if t.Attr < 0 || t.Attr >= rs.Arity() {
		return nil, fmt.Errorf("schematx: %s: attribute %d out of range for arity %d", t.Name(), t.Attr, rs.Arity())
	}
	main, dict := t.Relation+"_jd", t.Relation+"_dict"
	for _, name := range []string{main, dict} {
		if err := freshRelation(base.Schema(), name); err != nil {
			return nil, fmt.Errorf("%s: %w", t.Name(), err)
		}
	}
	attr := rs.Attributes[t.Attr]
	refAttr := freshAttr(rs.Attributes, attr+"_ref")

	mainAttrs := append([]string(nil), rs.Attributes...)
	mainAttrs[t.Attr] = refAttr

	spec := specOf(base.Schema())
	vs := db.NewSchema()
	for _, name := range spec.names {
		if name != t.Relation {
			vs.MustAdd(name, spec.attrs[name]...)
			continue
		}
		vs.MustAdd(main, mainAttrs...)
		vs.MustAdd(dict, refAttr, attr)
	}
	vdb := db.New(vs)
	for _, name := range spec.names {
		if name != t.Relation {
			shareRelation(vdb, base, name)
		}
	}
	refs := make(map[string]string)
	for _, tp := range base.Relation(t.Relation).Snapshot() {
		v := tp[t.Attr]
		ref, ok := refs[v]
		if !ok {
			ref = fmt.Sprintf("%s_%s_ref_%06d", t.Relation, attr, len(refs))
			refs[v] = ref
			vdb.MustInsert(dict, ref, v)
		}
		row := append([]string(nil), tp...)
		row[t.Attr] = ref
		vdb.MustInsert(main, row...)
	}

	vb, err := t.rewriteBias(src.Bias, main, dict)
	if err != nil {
		return nil, err
	}

	invert := func() (*db.Database, error) {
		out := db.New(spec.build())
		for _, name := range spec.names {
			if name != t.Relation {
				shareRelation(out, vdb, name)
			}
		}
		values := make(map[string]string, vdb.Relation(dict).Len())
		for _, tp := range vdb.Relation(dict).Snapshot() {
			if _, dup := values[tp[0]]; dup {
				return nil, fmt.Errorf("reference %q appears twice in %s", tp[0], dict)
			}
			values[tp[0]] = tp[1]
		}
		for _, tp := range vdb.Relation(main).Snapshot() {
			v, ok := values[tp[t.Attr]]
			if !ok {
				return nil, fmt.Errorf("reference %q in %s has no %s row", tp[t.Attr], main, dict)
			}
			row := append([]string(nil), tp...)
			row[t.Attr] = v
			out.MustInsert(t.Relation, row...)
		}
		return out, nil
	}

	return finish(&Variant{Name: t.Name(), DB: vdb, Bias: vb, Invert: invert}, src)
}

func (t JoinDecompose) rewriteBias(src *bias.Bias, main, dict string) (*bias.Bias, error) {
	refType := freshType(src, fmt.Sprintf("Tref_%s_%d", t.Relation, t.Attr))
	vb := &bias.Bias{}
	seenPred := make(map[string]bool)
	for _, p := range src.Predicates {
		if p.Relation != t.Relation {
			vb.Predicates = append(vb.Predicates, p)
			continue
		}
		if t.Attr >= len(p.Types) {
			return nil, fmt.Errorf("schematx: %s: predicate %s has arity %d, below attribute %d",
				t.Name(), p.Relation, len(p.Types), t.Attr)
		}
		types := append([]string(nil), p.Types...)
		valType := types[t.Attr]
		types[t.Attr] = refType
		vb.Predicates = append(vb.Predicates, bias.PredicateDef{Relation: main, Types: types})
		dp := bias.PredicateDef{Relation: dict, Types: []string{refType, valType}}
		if key := dp.String(); !seenPred[key] {
			seenPred[key] = true
			vb.Predicates = append(vb.Predicates, dp)
		}
	}
	ms := newModeSet()
	for _, m := range src.Modes {
		if m.Relation != t.Relation {
			ms.keep(m)
			continue
		}
		syms := append([]bias.ModeSymbol(nil), m.Symbols...)
		switch m.Symbols[t.Attr] {
		case bias.Input:
			ms.add(main, syms...)
			ms.add(dict, bias.Output, bias.Input)
		case bias.Output:
			ms.add(main, syms...)
			ms.add(dict, bias.Input, bias.Output)
		case bias.Constant:
			syms[t.Attr] = bias.Output
			ms.add(main, syms...)
			ms.add(dict, bias.Input, bias.Constant)
		}
	}
	vb.Modes = ms.modes
	return vb, nil
}
