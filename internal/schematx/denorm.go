package schematx

import (
	"fmt"

	"repro/internal/bias"
	"repro/internal/db"
)

// Denormalize folds a functional-dependency join into one wide
// relation: given Left and Right where Right's first attribute is a key
// (unique) and every Left[On] value appears in it, the variant replaces
// Left with
//
//	Left_w(left attrs..., right attrs[1:]...)
//
// — each Left row extended with its unique Right partner's dependent
// columns. Right is kept: the fold is lossless for Left (projection
// recovers it exactly, in row order) but Right rows unreferenced by
// Left would otherwise be lost.
//
// Bias rewrite: Right's predicates and modes survive unchanged. Left's
// predicates become wide predicates (left types + right dependent
// types) for every Left×Right predicate pair. Each Left mode ls yields
//
//   - ls with Output appended for the dependent columns (the wide
//     relation used "as Left"), and
//   - for every Right mode rs: ls with rs's dependent symbols mapped
//     Input→Output (an Input there would demand the dependent value be
//     already known; the wide row supplies it as an Output instead,
//     while Constant positions keep their constant role).
type Denormalize struct {
	// Left is the relation folded away (replaced by the wide relation).
	Left string
	// On is the Left attribute index joined to Right's key.
	On int
	// Right is the FD side: attribute 0 must be unique across its
	// tuples, and every Left[On] value must appear there.
	Right string
}

func (t Denormalize) Name() string {
	return fmt.Sprintf("denorm(%s@%d->%s)", t.Left, t.On, t.Right)
}

func (t Denormalize) Apply(src Source) (*Variant, error) {
	base := src.DB
	ls := base.Schema().Relation(t.Left)
	rsch := base.Schema().Relation(t.Right)
	if ls == nil || rsch == nil {
		return nil, fmt.Errorf("schematx: %s: relation %q or %q not in schema", t.Name(), t.Left, t.Right)
	}
	if t.Left == t.Right {
		return nil, fmt.Errorf("schematx: %s: cannot denormalize a relation into itself", t.Name())
	}
	if t.On < 0 || t.On >= ls.Arity() {
		return nil, fmt.Errorf("schematx: %s: join attribute %d out of range for arity %d", t.Name(), t.On, ls.Arity())
	}
	if rsch.Arity() < 2 {
		return nil, fmt.Errorf("schematx: %s: %s has no dependent columns to fold", t.Name(), t.Right)
	}
	wide := t.Left + "_w"
	if err := freshRelation(base.Schema(), wide); err != nil {
		return nil, fmt.Errorf("%s: %w", t.Name(), err)
	}

	// The FD premise: Right's key is unique and Left's join column is
	// contained in it. Checked against the data, not assumed.
	byKey := make(map[string]db.Tuple, base.Relation(t.Right).Len())
	for _, tp := range base.Relation(t.Right).Snapshot() {
		if _, dup := byKey[tp[0]]; dup {
			return nil, fmt.Errorf("schematx: %s: %s.%s is not a key: value %q repeats",
				t.Name(), t.Right, rsch.Attributes[0], tp[0])
		}
		byKey[tp[0]] = tp
	}
	for _, tp := range base.Relation(t.Left).Snapshot() {
		if _, ok := byKey[tp[t.On]]; !ok {
			return nil, fmt.Errorf("schematx: %s: %s.%s value %q has no %s row (inclusion violated)",
				t.Name(), t.Left, ls.Attributes[t.On], tp[t.On], t.Right)
		}
	}

	wideAttrs := append([]string(nil), ls.Attributes...)
	for _, a := range rsch.Attributes[1:] {
		wideAttrs = append(wideAttrs, freshAttr(wideAttrs, a))
	}

	spec := specOf(base.Schema())
	vs := db.NewSchema()
	for _, name := range spec.names {
		if name == t.Left {
			vs.MustAdd(wide, wideAttrs...)
		} else {
			vs.MustAdd(name, spec.attrs[name]...)
		}
	}
	vdb := db.New(vs)
	for _, name := range spec.names {
		if name != t.Left {
			shareRelation(vdb, base, name)
		}
	}
	for _, tp := range base.Relation(t.Left).Snapshot() {
		row := make([]string, 0, len(wideAttrs))
		row = append(row, tp...)
		row = append(row, byKey[tp[t.On]][1:]...)
		vdb.MustInsert(wide, row...)
	}

	vb, err := t.rewriteBias(src.Bias, wide)
	if err != nil {
		return nil, err
	}

	leftArity := ls.Arity()
	invert := func() (*db.Database, error) {
		out := db.New(spec.build())
		for _, name := range spec.names {
			if name != t.Left {
				shareRelation(out, vdb, name)
			}
		}
		for _, tp := range vdb.Relation(wide).Snapshot() {
			out.MustInsert(t.Left, tp[:leftArity]...)
		}
		return out, nil
	}

	return finish(&Variant{Name: t.Name(), DB: vdb, Bias: vb, Invert: invert}, src)
}

func (t Denormalize) rewriteBias(src *bias.Bias, wide string) (*bias.Bias, error) {
	var leftPreds, rightPreds []bias.PredicateDef
	vb := &bias.Bias{}
	for _, p := range src.Predicates {
		switch p.Relation {
		case t.Left:
			leftPreds = append(leftPreds, p)
		case t.Right:
			rightPreds = append(rightPreds, p)
			vb.Predicates = append(vb.Predicates, p)
		default:
			vb.Predicates = append(vb.Predicates, p)
		}
	}
	if len(leftPreds) == 0 || len(rightPreds) == 0 {
		return nil, fmt.Errorf("schematx: %s: bias lacks predicate definitions for %s or %s",
			t.Name(), t.Left, t.Right)
	}
	seenPred := make(map[string]bool)
	for _, lp := range leftPreds {
		for _, rp := range rightPreds {
			p := bias.PredicateDef{Relation: wide, Types: append(append([]string(nil), lp.Types...), rp.Types[1:]...)}
			if key := p.String(); !seenPred[key] {
				seenPred[key] = true
				vb.Predicates = append(vb.Predicates, p)
			}
		}
	}

	var rightModes []bias.ModeDef
	ms := newModeSet()
	for _, m := range src.Modes {
		if m.Relation == t.Right {
			rightModes = append(rightModes, m)
		}
		if m.Relation != t.Left {
			ms.keep(m)
		}
	}
	for _, m := range src.Modes {
		if m.Relation != t.Left {
			continue
		}
		plain := append([]bias.ModeSymbol(nil), m.Symbols...)
		for i := 1; i < len(rightPreds[0].Types); i++ {
			plain = append(plain, bias.Output)
		}
		ms.add(wide, plain...)
		for _, rm := range rightModes {
			syms := append([]bias.ModeSymbol(nil), m.Symbols...)
			for _, s := range rm.Symbols[1:] {
				if s == bias.Input {
					s = bias.Output
				}
				syms = append(syms, s)
			}
			ms.add(wide, syms...)
		}
	}
	vb.Modes = ms.modes
	return vb, nil
}
