package datagen

import (
	"math/rand"

	"repro/internal/bias"
	"repro/internal/db"
	"repro/internal/logic"
)

// imdbSatellites enumerates the long tail of the 46-relation IMDb-style
// schema: per-movie, per-person, and catalog relations beyond the core
// five (movie, person, directed, actedIn, genre). Each entry declares the
// relation's attributes and the type names its expert bias assigns; the
// first attribute of "movieX" relations joins movie, of "personX"
// relations joins person.
type satellite struct {
	name  string
	attrs []string
	types []string
}

var movieSatellites = []satellite{
	{"movieYear", []string{"movie", "year"}, []string{"Tm", "Tyear"}},
	{"movieRating", []string{"movie", "rating"}, []string{"Tm", "Trating"}},
	{"movieRuntime", []string{"movie", "runtime"}, []string{"Tm", "Truntime"}},
	{"movieCountry", []string{"movie", "country"}, []string{"Tm", "Tcountry"}},
	{"movieLanguage", []string{"movie", "language"}, []string{"Tm", "Tlanguage"}},
	{"movieBudget", []string{"movie", "budget"}, []string{"Tm", "Tbudget"}},
	{"movieGross", []string{"movie", "gross"}, []string{"Tm", "Tgross"}},
	{"movieStudio", []string{"movie", "studio"}, []string{"Tm", "Tstudio"}},
	{"movieColor", []string{"movie", "color"}, []string{"Tm", "Tcolor"}},
	{"movieSound", []string{"movie", "sound"}, []string{"Tm", "Tsound"}},
	{"movieCert", []string{"movie", "cert"}, []string{"Tm", "Tcert"}},
	{"filmedAt", []string{"movie", "location"}, []string{"Tm", "Tlocation"}},
	{"screenedAt", []string{"movie", "festival"}, []string{"Tm", "Tfestival"}},
	{"distributedBy", []string{"movie", "distributor"}, []string{"Tm", "Tdistributor"}},
	{"hasKeyword", []string{"movie", "keyword"}, []string{"Tm", "Tkeyword"}},
	{"wonAward", []string{"movie", "award"}, []string{"Tm", "Taward"}},
	{"nominatedFor", []string{"movie", "award"}, []string{"Tm", "Taward"}},
	{"inSeries", []string{"movie", "series"}, []string{"Tm", "Tseries"}},
}

var personSatellites = []satellite{
	{"personBorn", []string{"person", "year"}, []string{"Tp", "Tyear"}},
	{"personGender", []string{"person", "gender"}, []string{"Tp", "Tgender"}},
	{"personNationality", []string{"person", "country"}, []string{"Tp", "Tcountry"}},
	{"personHeight", []string{"person", "height"}, []string{"Tp", "Theight"}},
	{"personAward", []string{"person", "award"}, []string{"Tp", "Taward"}},
}

var crewSatellites = []satellite{
	{"produced", []string{"person", "movie"}, []string{"Tp", "Tm"}},
	{"wrote", []string{"person", "movie"}, []string{"Tp", "Tm"}},
	{"edited", []string{"person", "movie"}, []string{"Tp", "Tm"}},
	{"composedFor", []string{"person", "movie"}, []string{"Tp", "Tm"}},
	{"shotFor", []string{"person", "movie"}, []string{"Tp", "Tm"}},
}

var catalogSatellites = []satellite{
	{"studio", []string{"studio"}, []string{"Tstudio"}},
	{"studioCountry", []string{"studio", "country"}, []string{"Tstudio", "Tcountry"}},
	{"location", []string{"location"}, []string{"Tlocation"}},
	{"festival", []string{"festival"}, []string{"Tfestival"}},
	{"distributor", []string{"distributor"}, []string{"Tdistributor"}},
	{"keyword", []string{"keyword"}, []string{"Tkeyword"}},
	{"award", []string{"award"}, []string{"Taward"}},
	{"series", []string{"series"}, []string{"Tseries"}},
	{"country", []string{"country"}, []string{"Tcountry"}},
	{"language", []string{"language"}, []string{"Tlanguage"}},
	{"genreName", []string{"gname"}, []string{"Tgenre"}},
	{"sequelOf", []string{"movie", "movie2"}, []string{"Tm", "Tm"}},
	{"workedWith", []string{"person", "person2"}, []string{"Tp", "Tp"}},
}

// IMDb generates the movie database (§6.1): 46 relations, dominated by
// the core movie/person/directed/actedIn/genre tables plus a long tail
// of satellites that make the schema wide (the reason the paper's expert
// needed 112 bias definitions). The target dramaDirector(dir) holds when
// dir directed at least one drama movie — a two-hop join ending in the
// constant "g_drama".
func IMDb(cfg Config) *Dataset { return mustGenerate("imdb", cfg) }

func generateIMDb(cfg Config, mk SinkFactory) (*Dataset, error) {
	cfg = cfg.Normalized()
	rng := rand.New(rand.NewSource(cfg.Seed + 3))

	nMovie := cfg.scaled(1500, 240)
	nPerson := cfg.scaled(1200, 200)
	nPos := cfg.scaled(120, 40)
	nNeg := 2 * nPos

	s := db.NewSchema()
	s.MustAdd("movie", "movie")
	s.MustAdd("person", "person")
	s.MustAdd("directed", "person", "movie")
	s.MustAdd("actedIn", "person", "movie")
	s.MustAdd("genre", "movie", "gname")
	all := make([]satellite, 0, 48)
	all = append(all, movieSatellites...)
	all = append(all, personSatellites...)
	all = append(all, crewSatellites...)
	all = append(all, catalogSatellites...)
	for _, sat := range all {
		s.MustAdd(sat.name, sat.attrs...)
	}
	sink, err := mk(s)
	if err != nil {
		return nil, err
	}
	d := newDedupSink(sink)

	genres := []string{"g_drama", "g_comedy", "g_action", "g_horror", "g_scifi", "g_romance", "g_thriller", "g_doc"}
	years := make([]string, 40)
	for i := range years {
		years[i] = id("year", 1980+i)
	}
	small := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = id(prefix, i)
		}
		return out
	}
	studios := small("studio", 40)
	locations := small("loc", 60)
	festivals := small("fest", 15)
	distributors := small("dist", 25)
	keywords := small("kw", 120)
	awards := small("award", 30)
	seriesIDs := small("series", 50)
	countries := small("country", 20)
	languages := small("lang", 15)
	ratings := []string{"r_1", "r_2", "r_3", "r_4", "r_5"}
	runtimes := []string{"rt_short", "rt_med", "rt_long"}
	budgets := []string{"b_low", "b_mid", "b_high"}
	grosses := []string{"gr_low", "gr_mid", "gr_high"}
	colors := []string{"color", "bw"}
	sounds := []string{"mono", "stereo", "atmos"}
	certs := []string{"cert_g", "cert_pg", "cert_r"}
	genders := []string{"f", "m"}
	heights := []string{"h_short", "h_avg", "h_tall"}

	// Catalog contents.
	insertAll := func(rel string, vals []string) {
		for _, v := range vals {
			d.MustInsert(rel, v)
		}
	}
	insertAll("studio", studios)
	insertAll("location", locations)
	insertAll("festival", festivals)
	insertAll("distributor", distributors)
	insertAll("keyword", keywords)
	insertAll("award", awards)
	insertAll("series", seriesIDs)
	insertAll("country", countries)
	insertAll("language", languages)
	insertAll("genreName", genres)
	for _, st := range studios {
		d.MustInsert("studioCountry", st, pick(rng, countries))
	}

	movies := make([]string, nMovie)
	isDrama := make([]bool, nMovie)
	for i := range movies {
		movies[i] = id("movie", i)
		d.MustInsert("movie", movies[i])
		g1 := pick(rng, genres)
		d.MustInsert("genre", movies[i], g1)
		isDrama[i] = g1 == "g_drama"
		if rng.Intn(4) == 0 { // some movies have a second genre
			g2 := pick(rng, genres)
			d.MustInsert("genre", movies[i], g2)
			isDrama[i] = isDrama[i] || g2 == "g_drama"
		}
		d.MustInsert("movieYear", movies[i], pick(rng, years))
		d.MustInsert("movieRating", movies[i], pick(rng, ratings))
		d.MustInsert("movieRuntime", movies[i], pick(rng, runtimes))
		d.MustInsert("movieCountry", movies[i], pick(rng, countries))
		d.MustInsert("movieLanguage", movies[i], pick(rng, languages))
		if rng.Intn(2) == 0 {
			d.MustInsert("movieBudget", movies[i], pick(rng, budgets))
			d.MustInsert("movieGross", movies[i], pick(rng, grosses))
		}
		d.MustInsert("movieStudio", movies[i], pick(rng, studios))
		d.MustInsert("movieColor", movies[i], pick(rng, colors))
		d.MustInsert("movieSound", movies[i], pick(rng, sounds))
		d.MustInsert("movieCert", movies[i], pick(rng, certs))
		d.MustInsert("filmedAt", movies[i], pick(rng, locations))
		if rng.Intn(3) == 0 {
			d.MustInsert("screenedAt", movies[i], pick(rng, festivals))
		}
		d.MustInsert("distributedBy", movies[i], pick(rng, distributors))
		for k, n := 0, 1+rng.Intn(3); k < n; k++ {
			d.MustInsert("hasKeyword", movies[i], pick(rng, keywords))
		}
		if rng.Intn(8) == 0 {
			d.MustInsert("wonAward", movies[i], pick(rng, awards))
		}
		if rng.Intn(5) == 0 {
			d.MustInsert("nominatedFor", movies[i], pick(rng, awards))
		}
		if rng.Intn(6) == 0 {
			d.MustInsert("inSeries", movies[i], pick(rng, seriesIDs))
		}
		if i > 0 && rng.Intn(10) == 0 {
			d.MustInsert("sequelOf", movies[i], movies[rng.Intn(i)])
		}
	}

	persons := make([]string, nPerson)
	for i := range persons {
		persons[i] = id("person", i)
		d.MustInsert("person", persons[i])
		d.MustInsert("personBorn", persons[i], pick(rng, years))
		d.MustInsert("personGender", persons[i], pick(rng, genders))
		d.MustInsert("personNationality", persons[i], pick(rng, countries))
		if rng.Intn(2) == 0 {
			d.MustInsert("personHeight", persons[i], pick(rng, heights))
		}
		if rng.Intn(10) == 0 {
			d.MustInsert("personAward", persons[i], pick(rng, awards))
		}
		if i > 0 && rng.Intn(8) == 0 {
			d.MustInsert("workedWith", persons[i], persons[rng.Intn(i)])
		}
	}

	// Directors: the first nPos+nNeg persons direct movies; positives
	// direct at least one drama, negatives none. Remaining persons are
	// cast and crew.
	dramaMovies := make([]string, 0, nMovie)
	nonDrama := make([]string, 0, nMovie)
	for i, m := range movies {
		if isDrama[i] {
			dramaMovies = append(dramaMovies, m)
		} else {
			nonDrama = append(nonDrama, m)
		}
	}
	var pos, neg []logic.Literal
	for i := 0; i < nPos; i++ {
		p := persons[i]
		d.MustInsert("directed", p, pick(rng, dramaMovies))
		if rng.Intn(2) == 0 {
			d.MustInsert("directed", p, pick(rng, nonDrama))
		}
		pos = append(pos, example("dramaDirector", p))
	}
	for i := nPos; i < nPos+nNeg && i < nPerson; i++ {
		p := persons[i]
		d.MustInsert("directed", p, pick(rng, nonDrama))
		if rng.Intn(2) == 0 {
			d.MustInsert("directed", p, pick(rng, nonDrama))
		}
		neg = append(neg, example("dramaDirector", p))
	}
	// Cast and crew links.
	for _, m := range movies {
		for k, n := 0, 2+rng.Intn(4); k < n; k++ {
			d.MustInsert("actedIn", pick(rng, persons), m)
		}
		if rng.Intn(2) == 0 {
			d.MustInsert("produced", pick(rng, persons), m)
		}
		if rng.Intn(2) == 0 {
			d.MustInsert("wrote", pick(rng, persons), m)
		}
		if rng.Intn(3) == 0 {
			d.MustInsert("edited", pick(rng, persons), m)
		}
		if rng.Intn(3) == 0 {
			d.MustInsert("composedFor", pick(rng, persons), m)
		}
		if rng.Intn(3) == 0 {
			d.MustInsert("shotFor", pick(rng, persons), m)
		}
	}

	return &Dataset{
		Name:           "imdb",
		Target:         "dramaDirector",
		TargetAttrs:    []string{"person"},
		Pos:            pos,
		Neg:            neg,
		Manual:         imdbManualBias(),
		TrueDefinition: "dramaDirector(P) :- directed(P,M), genre(M,g_drama).",
	}, nil
}

// imdbManualBias builds the expert bias for the 46-relation schema. The
// paper reports 112 hand-written definitions for IMDb; the count here
// comes out the same way: one or two predicate definitions per relation
// plus the mode definitions an expert would write for the join-bearing
// relations.
func imdbManualBias() *bias.Bias {
	b := &bias.Bias{}
	addPred := func(rel string, types ...string) {
		b.Predicates = append(b.Predicates, bias.PredicateDef{Relation: rel, Types: types})
	}
	addMode := func(rel string, syms ...bias.ModeSymbol) {
		b.Modes = append(b.Modes, bias.ModeDef{Relation: rel, Symbols: syms})
	}
	const (
		I = bias.Input
		O = bias.Output
		C = bias.Constant
	)
	addPred("dramaDirector", "Tp")
	addPred("movie", "Tm")
	addPred("person", "Tp")
	addPred("directed", "Tp", "Tm")
	addPred("actedIn", "Tp", "Tm")
	addPred("genre", "Tm", "Tgenre")
	for _, group := range [][]satellite{movieSatellites, personSatellites, crewSatellites, catalogSatellites} {
		for _, sat := range group {
			addPred(sat.name, sat.types...)
		}
	}
	// Modes: core join relations in both directions, genre with constant,
	// per-movie satellites forward, catalog memberships forward.
	addMode("movie", I)
	addMode("person", I)
	addMode("directed", I, O)
	addMode("directed", O, I)
	addMode("actedIn", I, O)
	addMode("actedIn", O, I)
	addMode("genre", I, O)
	addMode("genre", I, C)
	addMode("genre", O, I)
	for _, sat := range movieSatellites {
		addMode(sat.name, I, O)
		addMode(sat.name, I, C)
	}
	for _, sat := range personSatellites {
		addMode(sat.name, I, O)
		addMode(sat.name, I, C)
	}
	for _, sat := range crewSatellites {
		addMode(sat.name, I, O)
		addMode(sat.name, O, I)
	}
	for _, sat := range catalogSatellites {
		syms := make([]bias.ModeSymbol, len(sat.attrs))
		for i := range syms {
			syms[i] = O
		}
		syms[0] = I
		addMode(sat.name, syms...)
	}
	return b
}
