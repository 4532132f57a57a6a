package datagen

import (
	"math/rand"

	"repro/internal/bias"
	"repro/internal/db"
	"repro/internal/logic"
)

// UW generates the UW-CSE-style departmental database (paper §1, §6.1):
// 9 relations, ≈1.8K tuples at scale 1, 102 positive and 204 negative
// examples of advisedBy(stud, prof).
//
// Generating concept: a student is advised by a professor when they
// co-authored a publication and (for most pairs) the student TAed a
// course the professor taught. A slice of positives carries no structure
// (label noise) and a slice of negatives co-authored without advising
// (hard negatives), so no learner reaches a perfect F-measure — matching
// the paper's UW rows.
func UW(cfg Config) *Dataset { return mustGenerate("uw", cfg) }

func generateUW(cfg Config, mk SinkFactory) (*Dataset, error) {
	cfg = cfg.Normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))

	nStud := cfg.scaled(150, 60)
	nProf := cfg.scaled(40, 16)
	nCourse := cfg.scaled(90, 24)
	nPos := cfg.scaled(102, 40)
	nNeg := 2 * nPos

	s := db.NewSchema()
	s.MustAdd("student", "stud")
	s.MustAdd("professor", "prof")
	s.MustAdd("inPhase", "stud", "phase")
	s.MustAdd("yearsInProgram", "stud", "years")
	s.MustAdd("hasPosition", "prof", "position")
	s.MustAdd("courseLevel", "course", "level")
	s.MustAdd("taughtBy", "course", "prof", "term")
	s.MustAdd("ta", "course", "stud", "term")
	s.MustAdd("publication", "title", "person")
	sink, err := mk(s)
	if err != nil {
		return nil, err
	}
	d := newDedupSink(sink)

	phases := []string{"pre_quals", "post_quals", "post_generals"}
	years := []string{"year_1", "year_2", "year_3", "year_4", "year_5", "year_6"}
	positions := []string{"assistant_prof", "associate_prof", "full_prof"}
	levels := []string{"level_300", "level_400", "level_500"}
	terms := []string{"term_w1", "term_s1", "term_f1", "term_w2", "term_s2", "term_f2"}

	studs := make([]string, nStud)
	for i := range studs {
		studs[i] = id("stud", i)
		d.MustInsert("student", studs[i])
		d.MustInsert("inPhase", studs[i], pick(rng, phases))
		d.MustInsert("yearsInProgram", studs[i], pick(rng, years))
	}
	profs := make([]string, nProf)
	for i := range profs {
		profs[i] = id("prof", i)
		d.MustInsert("professor", profs[i])
		d.MustInsert("hasPosition", profs[i], pick(rng, positions))
	}
	courses := make([]string, nCourse)
	for i := range courses {
		courses[i] = id("course", i)
		d.MustInsert("courseLevel", courses[i], pick(rng, levels))
		// Each course taught by 2-3 professors over random terms.
		for k, n := 0, 2+rng.Intn(2); k < n; k++ {
			d.MustInsert("taughtBy", courses[i], pick(rng, profs), pick(rng, terms))
		}
	}

	nextTitle := 0
	copub := func(st, pr string) {
		title := id("pub", nextTitle)
		nextTitle++
		d.MustInsert("publication", title, st)
		d.MustInsert("publication", title, pr)
	}
	taship := func(st, pr string) {
		course := pick(rng, courses)
		term := pick(rng, terms)
		d.MustInsert("ta", course, st, term)
		d.MustInsert("taughtBy", course, pr, term)
	}

	// Positives: advised pairs (student i advised by professor i mod nProf
	// with stride to spread pairs).
	type pair struct{ s, p string }
	used := make(map[pair]bool)
	var pos []logic.Literal
	for i := 0; i < nPos; i++ {
		st := studs[i%nStud]
		pr := profs[(i*3+rng.Intn(nProf))%nProf]
		pk := pair{st, pr}
		if used[pk] {
			pr = profs[(i*5+1)%nProf]
			pk = pair{st, pr}
			if used[pk] {
				continue
			}
		}
		used[pk] = true
		switch {
		case i%10 == 9:
			// 10% label noise: no structure at all.
		case i%10 >= 7:
			// 20% co-publication only.
			copub(st, pr)
		default:
			// 70% co-publication and TAship; half of these pairs
			// co-author a second paper.
			copub(st, pr)
			if rng.Intn(2) == 0 {
				copub(st, pr)
			}
			taship(st, pr)
		}
		pos = append(pos, example("advisedBy", st, pr))
	}

	// Hard negatives: co-authors who are not advised (≈15% of negatives),
	// then random unadvised pairs.
	var neg []logic.Literal
	for len(neg) < nNeg {
		st := pick(rng, studs)
		pr := pick(rng, profs)
		pk := pair{st, pr}
		if used[pk] {
			continue
		}
		used[pk] = true
		if len(neg) < nNeg/7 {
			copub(st, pr)
		}
		neg = append(neg, example("advisedBy", st, pr))
	}

	// Filler publications: ~40% of students and professors publish solo
	// work, so publication[person] ⊆ student[stud] holds only
	// approximately (the paper's motivating example for approximate
	// INDs) and student[stud] ⊆ publication[person] does not hold.
	for i, st := range studs {
		if i%5 < 3 {
			title := id("pub", nextTitle)
			nextTitle++
			d.MustInsert("publication", title, st)
		}
	}
	for i, pr := range profs {
		if i%5 < 3 {
			title := id("pub", nextTitle)
			nextTitle++
			d.MustInsert("publication", title, pr)
		}
	}
	// Extra TAships without advising (structure noise).
	for i := 0; i < nStud/2; i++ {
		d.MustInsert("ta", pick(rng, courses), pick(rng, studs), pick(rng, terms))
	}

	return &Dataset{
		Name:        "uw",
		Target:      "advisedBy",
		TargetAttrs: []string{"stud", "prof"},
		Pos:         pos,
		Neg:         neg,
		Manual:      uwManualBias(),
		TrueDefinition: "advisedBy(S,P) :- publication(T,S), publication(T,P), " +
			"ta(C,S,Term), taughtBy(C,P,Term).",
	}, nil
}

// uwManualBias is the expert bias for UW: 19 definitions, the count the
// paper reports (§6.1).
func uwManualBias() *bias.Bias {
	return bias.MustParse(`
		% predicate definitions (11)
		advisedBy(Ts,Tp)
		student(Ts)
		professor(Tp)
		inPhase(Ts,Tphase)
		yearsInProgram(Ts,Tyear)
		hasPosition(Tp,Tposition)
		courseLevel(Tcourse,Tlevel)
		taughtBy(Tcourse,Tp,Tterm)
		ta(Tcourse,Ts,Tterm)
		publication(Ttitle,Ts)
		publication(Ttitle,Tp)
		% mode definitions (8)
		student(+)
		professor(+)
		inPhase(+,#)
		hasPosition(+,-)
		taughtBy(+,-,-)
		ta(-,+,-)
		publication(-,+)
		publication(+,-)
	`)
}
