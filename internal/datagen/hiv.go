package datagen

import (
	"math/rand"

	"repro/internal/bias"
	"repro/internal/db"
	"repro/internal/logic"
)

// HIV generates the chemical-compound dataset (§6.1): 5 relations
// describing compounds, atoms, bonds and rings. The target antiHIV(comp)
// holds when the compound contains a nitroso-like motif: a nitrogen atom
// double-bonded to an oxygen atom. The motif needs a three-literal join
// chain with element constants, so constants and multi-hop joins are
// both required — mirroring why the paper's HIV models are complex and
// benefit from random sampling (§6.3).
func HIV(cfg Config) *Dataset { return mustGenerate("hiv", cfg) }

func generateHIV(cfg Config, mk SinkFactory) (*Dataset, error) {
	cfg = cfg.Normalized()
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	nComp := cfg.scaled(300, 120)
	nPos := cfg.scaled(100, 40)
	nNeg := 2 * nPos

	s := db.NewSchema()
	s.MustAdd("compound", "comp")
	s.MustAdd("atm", "atom", "comp", "elem")
	s.MustAdd("bnd", "bond", "atom1", "atom2", "btype")
	s.MustAdd("ring", "ringid", "comp", "rtype")
	s.MustAdd("inRing", "atom", "ringid")
	sink, err := mk(s)
	if err != nil {
		return nil, err
	}
	d := newDedupSink(sink)

	elements := []string{"c", "c", "c", "c", "c", "h", "h", "o", "n", "s", "cl", "li"}
	btypes := []string{"single", "single", "single", "double", "aromatic"}
	rtypes := []string{"benzene", "pyridine", "furan"}

	// isPositive marks the compounds that get the motif.
	isPositive := make([]bool, nComp)
	perm := rng.Perm(nComp)
	for i := 0; i < nPos && i < nComp; i++ {
		isPositive[perm[i]] = true
	}

	nextAtom, nextBond, nextRing := 0, 0, 0
	for ci := 0; ci < nComp; ci++ {
		comp := id("comp", ci)
		d.MustInsert("compound", comp)
		nAtoms := 8 + rng.Intn(10)
		atoms := make([]string, nAtoms)
		elems := make([]string, nAtoms)
		for ai := range atoms {
			atoms[ai] = id("atom", nextAtom)
			nextAtom++
			elems[ai] = pick(rng, elements)
			d.MustInsert("atm", atoms[ai], comp, elems[ai])
		}
		// Chain bonds plus a few extras. Negatives keep n and o atoms
		// (so no single literal separates the classes) but any bond that
		// would complete the n=o motif is downgraded to single.
		addBond := func(a1, a2 int, bt string) {
			nitroso := (elems[a1] == "n" && elems[a2] == "o") ||
				(elems[a1] == "o" && elems[a2] == "n")
			if !isPositive[ci] && nitroso && bt == "double" {
				bt = "single"
			}
			d.MustInsert("bnd", id("bond", nextBond), atoms[a1], atoms[a2], bt)
			nextBond++
		}
		for ai := 1; ai < nAtoms; ai++ {
			addBond(ai-1, ai, pick(rng, btypes))
		}
		for k := 0; k < 3; k++ {
			addBond(rng.Intn(nAtoms), rng.Intn(nAtoms), pick(rng, btypes))
		}
		if isPositive[ci] {
			// Inject the motif: a fresh n atom double-bonded to a fresh o.
			na := id("atom", nextAtom)
			nextAtom++
			d.MustInsert("atm", na, comp, "n")
			oa := id("atom", nextAtom)
			nextAtom++
			d.MustInsert("atm", oa, comp, "o")
			d.MustInsert("bnd", id("bond", nextBond), na, oa, "double")
			nextBond++
		}
		// Rings.
		for k, n := 0, rng.Intn(3); k < n; k++ {
			ringID := id("ring", nextRing)
			nextRing++
			d.MustInsert("ring", ringID, comp, pick(rng, rtypes))
			for j := 0; j < 3; j++ {
				d.MustInsert("inRing", atoms[rng.Intn(nAtoms)], ringID)
			}
		}
	}

	var pos, neg []logic.Literal
	for ci := 0; ci < nComp && (len(pos) < nPos || len(neg) < nNeg); ci++ {
		if isPositive[ci] && len(pos) < nPos {
			pos = append(pos, example("antiHIV", id("comp", ci)))
		} else if !isPositive[ci] && len(neg) < nNeg {
			neg = append(neg, example("antiHIV", id("comp", ci)))
		}
	}

	return &Dataset{
		Name:        "hiv",
		Target:      "antiHIV",
		TargetAttrs: []string{"comp"},
		Pos:         pos,
		Neg:         neg,
		Manual:      hivManualBias(),
		TrueDefinition: "antiHIV(C) :- atm(A1,C,n), bnd(B,A1,A2,double), " +
			"atm(A2,C,o).",
	}, nil
}

// hivManualBias is the expert bias for HIV: 14 definitions (§6.1).
func hivManualBias() *bias.Bias {
	return bias.MustParse(`
		% predicate definitions (6)
		antiHIV(Tc)
		compound(Tc)
		atm(Ta,Tc,Te)
		bnd(Tb,Ta,Ta,Tbt)
		ring(Tr,Tc,Trt)
		inRing(Ta,Tr)
		% mode definitions (8)
		compound(+)
		atm(-,+,#)
		atm(+,-,-)
		atm(+,-,#)
		bnd(-,+,-,#)
		bnd(-,-,+,#)
		ring(-,+,#)
		inRing(+,-)
	`)
}
