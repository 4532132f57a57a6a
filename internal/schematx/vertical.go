package schematx

import (
	"fmt"

	"repro/internal/bias"
	"repro/internal/db"
)

// VerticalPartition splits one relation R(a0..an) into two key-joined
// fragments
//
//	R_vp1(rid, a0..a{Split-1})   R_vp2(rid, a{Split}..an)
//
// where rid is a synthetic row surrogate ("<rel>_rid_%07d" by stored
// row position; a row surrogate, not a candidate key, so duplicate-free
// relations with repeated projections still round-trip). The surrogate
// gets a fresh type, shared only between the two fragments, so the
// learner can join them back together — and nothing else can join on
// it.
//
// Bias rewrite per source mode m (split into halves s1, s2):
//
//   - entry modes: each fragment whose half of m retains an Input keeps
//     that half's symbols with Output at rid — the fragment is reachable
//     exactly where the original relation was, and emits the surrogate
//     into the frontier.
//   - deref modes: each fragment also gets Input at rid with Constant
//     positions preserved and everything else Output — once the
//     surrogate is known, the other fragment's columns one hop away.
//
// The original concept is thus expressible with one extra literal (the
// fragment deref), costing one extra depth level at most.
type VerticalPartition struct {
	// Relation is the relation to split.
	Relation string
	// Split is the first attribute index of the second fragment; both
	// fragments must be non-empty (0 < Split < arity).
	Split int
}

func (t VerticalPartition) Name() string {
	return fmt.Sprintf("vpart(%s@%d)", t.Relation, t.Split)
}

func (t VerticalPartition) Apply(src Source) (*Variant, error) {
	base := src.DB
	rs := base.Schema().Relation(t.Relation)
	if rs == nil {
		return nil, fmt.Errorf("schematx: %s: relation %q not in schema", t.Name(), t.Relation)
	}
	if t.Split < 1 || t.Split >= rs.Arity() {
		return nil, fmt.Errorf("schematx: %s: split %d out of range for arity %d (both fragments must be non-empty)",
			t.Name(), t.Split, rs.Arity())
	}
	frag1, frag2 := t.Relation+"_vp1", t.Relation+"_vp2"
	for _, name := range []string{frag1, frag2} {
		if err := freshRelation(base.Schema(), name); err != nil {
			return nil, fmt.Errorf("%s: %w", t.Name(), err)
		}
	}
	ridAttr := freshAttr(rs.Attributes, "rid")

	spec := specOf(base.Schema())
	vs := db.NewSchema()
	for _, name := range spec.names {
		if name != t.Relation {
			vs.MustAdd(name, spec.attrs[name]...)
			continue
		}
		vs.MustAdd(frag1, append([]string{ridAttr}, rs.Attributes[:t.Split]...)...)
		vs.MustAdd(frag2, append([]string{ridAttr}, rs.Attributes[t.Split:]...)...)
	}
	vdb := db.New(vs)
	for _, name := range spec.names {
		if name != t.Relation {
			shareRelation(vdb, base, name)
		}
	}
	for i, tp := range base.Relation(t.Relation).Snapshot() {
		rid := fmt.Sprintf("%s_rid_%07d", t.Relation, i)
		vdb.MustInsert(frag1, append([]string{rid}, tp[:t.Split]...)...)
		vdb.MustInsert(frag2, append([]string{rid}, tp[t.Split:]...)...)
	}

	vb, err := t.rewriteBias(src.Bias, frag1, frag2)
	if err != nil {
		return nil, err
	}

	arity := rs.Arity()
	invert := func() (*db.Database, error) {
		out := db.New(spec.build())
		for _, name := range spec.names {
			if name != t.Relation {
				shareRelation(out, vdb, name)
			}
		}
		r2 := make(map[string]db.Tuple, vdb.Relation(frag2).Len())
		for _, tp := range vdb.Relation(frag2).Snapshot() {
			if _, dup := r2[tp[0]]; dup {
				return nil, fmt.Errorf("surrogate %q appears twice in %s", tp[0], frag2)
			}
			r2[tp[0]] = tp
		}
		for _, tp := range vdb.Relation(frag1).Snapshot() {
			half, ok := r2[tp[0]]
			if !ok {
				return nil, fmt.Errorf("surrogate %q in %s has no %s row", tp[0], frag1, frag2)
			}
			row := make([]string, 0, arity)
			row = append(row, tp[1:]...)
			row = append(row, half[1:]...)
			out.MustInsert(t.Relation, row...)
		}
		return out, nil
	}

	return finish(&Variant{Name: t.Name(), DB: vdb, Bias: vb, Invert: invert}, src)
}

func (t VerticalPartition) rewriteBias(src *bias.Bias, frag1, frag2 string) (*bias.Bias, error) {
	ridType := freshType(src, "Trid_"+t.Relation)
	vb := &bias.Bias{}
	for _, p := range src.Predicates {
		if p.Relation != t.Relation {
			vb.Predicates = append(vb.Predicates, p)
			continue
		}
		if t.Split >= len(p.Types) {
			return nil, fmt.Errorf("schematx: %s: predicate %s has arity %d, below split %d",
				t.Name(), p.Relation, len(p.Types), t.Split)
		}
		vb.Predicates = append(vb.Predicates,
			bias.PredicateDef{Relation: frag1, Types: append([]string{ridType}, p.Types[:t.Split]...)},
			bias.PredicateDef{Relation: frag2, Types: append([]string{ridType}, p.Types[t.Split:]...)})
	}
	ms := newModeSet()
	deref := func(syms []bias.ModeSymbol) []bias.ModeSymbol {
		out := []bias.ModeSymbol{bias.Input}
		for _, s := range syms {
			if s == bias.Constant {
				out = append(out, bias.Constant)
			} else {
				out = append(out, bias.Output)
			}
		}
		return out
	}
	for _, m := range src.Modes {
		if m.Relation != t.Relation {
			ms.keep(m)
			continue
		}
		s1, s2 := m.Symbols[:t.Split], m.Symbols[t.Split:]
		if hasInput(s1) {
			ms.add(frag1, append([]bias.ModeSymbol{bias.Output}, s1...)...)
		}
		if hasInput(s2) {
			ms.add(frag2, append([]bias.ModeSymbol{bias.Output}, s2...)...)
		}
		ms.add(frag1, deref(s1)...)
		ms.add(frag2, deref(s2)...)
	}
	vb.Modes = ms.modes
	return vb, nil
}
