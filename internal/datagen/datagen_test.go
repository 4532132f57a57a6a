package datagen

import (
	"regexp"
	"strconv"
	"testing"

	"repro/internal/db"
)

func TestGenerateKnownNames(t *testing.T) {
	for _, name := range Names() {
		ds, err := Generate(name, Config{Scale: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.Name != name {
			t.Errorf("%s: Name = %s", name, ds.Name)
		}
		if len(ds.Pos) == 0 || len(ds.Neg) == 0 {
			t.Errorf("%s: %d pos, %d neg", name, len(ds.Pos), len(ds.Neg))
		}
		if ds.DB.TotalTuples() == 0 {
			t.Errorf("%s: empty database", name)
		}
		if err := ds.Manual.Validate(ds.DB.Schema(), ds.Target, ds.TargetArity()); err != nil {
			t.Errorf("%s: manual bias invalid: %v", name, err)
		}
		if _, err := ds.Manual.Compile(ds.DB.Schema(), ds.Target, ds.TargetArity()); err != nil {
			t.Errorf("%s: manual bias does not compile: %v", name, err)
		}
	}
	if _, err := Generate("nope", Config{}); err == nil {
		t.Error("unknown dataset must fail")
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		a, _ := Generate(name, Config{Scale: 0.1, Seed: 9})
		b, _ := Generate(name, Config{Scale: 0.1, Seed: 9})
		if a.DB.TotalTuples() != b.DB.TotalTuples() {
			t.Errorf("%s: tuple counts differ across runs", name)
		}
		if len(a.Pos) != len(b.Pos) || len(a.Neg) != len(b.Neg) {
			t.Errorf("%s: example counts differ across runs", name)
		}
		for i := range a.Pos {
			if a.Pos[i].String() != b.Pos[i].String() {
				t.Fatalf("%s: positive %d differs", name, i)
			}
		}
	}
}

// TestPrefixConsistencyAcrossScales pins the id-space contract every
// generator shares (datagen.id): for each entity prefix the emitted ids
// form a contiguous zero-padded range, the range start is
// scale-invariant, and a smaller scale's id set is a strict prefix of a
// larger scale's — so scaled-down test fixtures and full-size runs
// agree on every entity they both contain, and IND discovery sees the
// same disjoint value domains at every scale. Categorical code spaces
// (course levels 300/400/500) are exempt from contiguity but must be
// identical at every scale.
func TestPrefixConsistencyAcrossScales(t *testing.T) {
	idPattern := regexp.MustCompile(`^([A-Za-z]+)_(\d+)$`)
	categorical := map[string]bool{"level": true}
	scales := []float64{0.1, 0.5, 1.0}

	collect := func(t *testing.T, name string, scale float64) map[string]map[int]bool {
		t.Helper()
		ds, err := Generate(name, Config{Scale: scale, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids := make(map[string]map[int]bool)
		for _, rel := range ds.DB.Schema().Names() {
			for _, tuple := range ds.DB.Relation(rel).Snapshot() {
				for _, v := range tuple {
					m := idPattern.FindStringSubmatch(v)
					if m == nil {
						continue
					}
					n, err := strconv.Atoi(m[2])
					if err != nil {
						t.Fatal(err)
					}
					if ids[m[1]] == nil {
						ids[m[1]] = make(map[int]bool)
					}
					ids[m[1]][n] = true
				}
			}
		}
		return ids
	}

	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sets := make([]map[string]map[int]bool, len(scales))
			for i, sc := range scales {
				sets[i] = collect(t, name, sc)
			}
			for prefix := range sets[0] {
				for i, sc := range scales {
					ids, ok := sets[i][prefix]
					if !ok {
						t.Errorf("prefix %s present at scale %g but absent at %g", prefix, scales[0], sc)
						continue
					}
					if categorical[prefix] {
						continue
					}
					min, max := -1, -1
					for n := range ids {
						if min == -1 || n < min {
							min = n
						}
						if n > max {
							max = n
						}
					}
					if len(ids) != max-min+1 {
						t.Errorf("scale %g: prefix %s has %d distinct ids over range [%d,%d]; counter ids must be contiguous",
							sc, prefix, len(ids), min, max)
					}
				}
				// Cross-scale: the smaller scale's id set must be contained
				// in the larger's (with contiguity above, that makes it a
				// prefix of the larger counter range); categorical code
				// spaces must not grow with scale at all.
				for i := 1; i < len(scales); i++ {
					small, large := sets[i-1][prefix], sets[i][prefix]
					if small == nil || large == nil {
						continue
					}
					for n := range small {
						if !large[n] {
							t.Errorf("prefix %s: id %d exists at scale %g but not at %g; smaller scales must be prefixes of larger ones",
								prefix, n, scales[i-1], scales[i])
							break
						}
					}
					if categorical[prefix] && len(small) != len(large) {
						t.Errorf("categorical prefix %s: %d codes at scale %g vs %d at %g; code space must be scale-invariant",
							prefix, len(small), scales[i-1], len(large), scales[i])
					}
				}
			}
		})
	}
}

func TestUWShape(t *testing.T) {
	ds := UW(Config{})
	if got := ds.DB.Schema().Len(); got != 9 {
		t.Errorf("UW relations = %d, want 9", got)
	}
	if len(ds.Pos) < 95 || len(ds.Pos) > 102 {
		t.Errorf("UW positives = %d, want ≈102", len(ds.Pos))
	}
	if len(ds.Neg) != 2*len(ds.Pos) {
		t.Errorf("UW negatives = %d, want 2x positives", len(ds.Neg))
	}
	total := ds.DB.TotalTuples()
	if total < 1200 || total > 2600 {
		t.Errorf("UW tuples = %d, want ≈1.8K", total)
	}
	if got := ds.Manual.Size(); got != 19 {
		t.Errorf("UW manual bias size = %d, want 19 (paper §6.1)", got)
	}
}

// uwSatisfies reports whether (s,p) has a co-publication and whether it
// has a TAship in the database.
func uwSatisfies(d *db.Database, st, pr string) (copub, taship bool) {
	pub := d.Relation("publication")
	for _, t1 := range pub.Lookup(1, st) {
		for _, t2 := range pub.Lookup(1, pr) {
			if t1[0] == t2[0] {
				copub = true
			}
		}
	}
	ta := d.Relation("ta")
	tb := d.Relation("taughtBy")
	for _, t1 := range ta.Lookup(1, st) {
		for _, t2 := range tb.Lookup(0, t1[0]) {
			if t2[1] == pr && t2[2] == t1[2] {
				taship = true
			}
		}
	}
	return
}

func TestUWConcept(t *testing.T) {
	ds := UW(Config{})
	full := 0
	for _, e := range ds.Pos {
		copub, taship := uwSatisfies(ds.DB, e.Terms[0].Name, e.Terms[1].Name)
		if copub && taship {
			full++
		}
	}
	// ≈70% of positives carry the full pattern (rest are partial/noise).
	if frac := float64(full) / float64(len(ds.Pos)); frac < 0.55 || frac > 0.85 {
		t.Errorf("full-pattern positives = %.2f, want ≈0.70", frac)
	}
	for _, e := range ds.Neg {
		copub, taship := uwSatisfies(ds.DB, e.Terms[0].Name, e.Terms[1].Name)
		if copub && taship {
			t.Fatalf("negative %v satisfies the full concept", e)
		}
	}
	// Some negatives must be hard (co-publication without advising).
	hard := 0
	for _, e := range ds.Neg {
		if copub, _ := uwSatisfies(ds.DB, e.Terms[0].Name, e.Terms[1].Name); copub {
			hard++
		}
	}
	if hard == 0 {
		t.Error("expected hard negatives with co-publications")
	}
}

// hivHasMotif reports whether the compound has an n=o double bond.
func hivHasMotif(d *db.Database, comp string) bool {
	atm := d.Relation("atm")
	bnd := d.Relation("bnd")
	elemOf := map[string]string{}
	for _, t := range atm.Lookup(1, comp) {
		elemOf[t[0]] = t[2]
	}
	for _, b := range bnd.Snapshot() {
		if b[3] != "double" {
			continue
		}
		e1, ok1 := elemOf[b[1]]
		e2, ok2 := elemOf[b[2]]
		if !ok1 || !ok2 {
			continue
		}
		if (e1 == "n" && e2 == "o") || (e1 == "o" && e2 == "n") {
			return true
		}
	}
	return false
}

func TestHIVConcept(t *testing.T) {
	ds := HIV(Config{Scale: 0.3})
	if got := ds.DB.Schema().Len(); got != 5 {
		t.Errorf("HIV relations = %d, want 5", got)
	}
	for _, e := range ds.Pos {
		if !hivHasMotif(ds.DB, e.Terms[0].Name) {
			t.Fatalf("positive %v lacks the n=o motif", e)
		}
	}
	for _, e := range ds.Neg {
		if hivHasMotif(ds.DB, e.Terms[0].Name) {
			t.Fatalf("negative %v carries the n=o motif", e)
		}
	}
	if got := ds.Manual.Size(); got != 14 {
		t.Errorf("HIV manual bias size = %d, want 14", got)
	}
	// Negatives must still contain nitrogen (no one-literal shortcut).
	nInNeg := false
	atm := ds.DB.Relation("atm")
	negSet := map[string]bool{}
	for _, e := range ds.Neg {
		negSet[e.Terms[0].Name] = true
	}
	for _, tp := range atm.Snapshot() {
		if negSet[tp[1]] && tp[2] == "n" {
			nInNeg = true
			break
		}
	}
	if !nInNeg {
		t.Error("negative compounds must contain nitrogen atoms")
	}
}

func imdbDirectsDrama(d *db.Database, p string) bool {
	directed := d.Relation("directed")
	genre := d.Relation("genre")
	for _, t := range directed.Lookup(0, p) {
		for _, g := range genre.Lookup(0, t[1]) {
			if g[1] == "g_drama" {
				return true
			}
		}
	}
	return false
}

func TestIMDbConcept(t *testing.T) {
	ds := IMDb(Config{Scale: 0.2})
	if got := ds.DB.Schema().Len(); got != 46 {
		// 5 core + 18 movie + 5 person + 5 crew + 13 catalog = 46.
		t.Errorf("IMDb relations = %d, want 46", got)
	}
	for _, e := range ds.Pos {
		if !imdbDirectsDrama(ds.DB, e.Terms[0].Name) {
			t.Fatalf("positive %v directed no drama", e)
		}
	}
	for _, e := range ds.Neg {
		if imdbDirectsDrama(ds.DB, e.Terms[0].Name) {
			t.Fatalf("negative %v directed a drama", e)
		}
	}
	if got := ds.Manual.Size(); got < 100 || got > 125 {
		t.Errorf("IMDb manual bias size = %d, want ≈112 (paper §6.1)", got)
	}
}

func fltIsThrough(d *db.Database, fid, hub, via string) bool {
	flight := d.Relation("flight")
	leg := d.Relation("leg")
	srcOK := false
	for _, t := range flight.Lookup(0, fid) {
		if t[1] == hub {
			srcOK = true
		}
	}
	if !srcOK {
		return false
	}
	for _, t := range leg.Lookup(0, fid) {
		if t[1] == via {
			return true
		}
	}
	return false
}

func TestFLTConcept(t *testing.T) {
	ds := FLT(Config{Scale: 0.3})
	if got := ds.DB.Schema().Len(); got != 3 {
		t.Errorf("FLT relations = %d, want 3", got)
	}
	hub, via := id("apt", 0), id("apt", 1)
	for _, e := range ds.Pos {
		if !fltIsThrough(ds.DB, e.Terms[0].Name, hub, via) {
			t.Fatalf("positive %v does not satisfy the concept", e)
		}
	}
	for _, e := range ds.Neg {
		if fltIsThrough(ds.DB, e.Terms[0].Name, hub, via) {
			t.Fatalf("negative %v satisfies the concept", e)
		}
	}
	if len(ds.Neg) != 3*len(ds.Pos) {
		t.Errorf("FLT ratio = %d:%d, want 1:3", len(ds.Pos), len(ds.Neg))
	}
	if got := ds.Manual.Size(); got != 18 {
		t.Errorf("FLT manual bias size = %d, want 18", got)
	}
}

func sysIsMalicious(d *db.Database, proc string) bool {
	ev := d.Relation("event")
	readCred, writeNet := false, false
	for _, t := range ev.Lookup(0, proc) {
		if t[2] == "f_cred_store" && t[3] == "read" {
			readCred = true
		}
		if t[2] == "f_net_spool" && t[3] == "write" {
			writeNet = true
		}
	}
	return readCred && writeNet
}

func TestSYSConcept(t *testing.T) {
	ds := SYS(Config{Scale: 0.3})
	if got := ds.DB.Schema().Len(); got != 1 {
		t.Errorf("SYS relations = %d, want 1 (single wide relation)", got)
	}
	for _, e := range ds.Pos {
		if !sysIsMalicious(ds.DB, e.Terms[0].Name) {
			t.Fatalf("positive %v lacks the malicious pattern", e)
		}
	}
	for _, e := range ds.Neg {
		if sysIsMalicious(ds.DB, e.Terms[0].Name) {
			t.Fatalf("negative %v carries the malicious pattern", e)
		}
	}
	if len(ds.Neg) <= len(ds.Pos) {
		t.Error("SYS must have more negatives than positives")
	}
	if got := ds.Manual.Size(); got != 9 {
		t.Errorf("SYS manual bias size = %d, want 9", got)
	}
}

func TestScaleControlsSize(t *testing.T) {
	smallDS := UW(Config{Scale: 0.2})
	bigDS := UW(Config{Scale: 1})
	if smallDS.DB.TotalTuples() >= bigDS.DB.TotalTuples() {
		t.Error("scale must control tuple counts")
	}
	if len(smallDS.Pos) >= len(bigDS.Pos) {
		t.Error("scale must control example counts")
	}
}
