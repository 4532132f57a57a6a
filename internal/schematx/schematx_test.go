package schematx

import (
	"strings"
	"testing"

	"repro/internal/datagen"
)

func source(t *testing.T, name string) Source {
	t.Helper()
	cfg := datagen.Config{Scale: 0.1, Seed: 1}
	var ds *datagen.Dataset
	switch name {
	case "uw":
		ds = datagen.UW(cfg)
	case "hiv":
		ds = datagen.HIV(cfg)
	case "imdb":
		ds = datagen.IMDb(cfg)
	case "flt":
		ds = datagen.FLT(cfg)
	case "sys":
		ds = datagen.SYS(cfg)
	default:
		t.Fatalf("unknown dataset %q", name)
	}
	return SourceOf(ds)
}

// TestRoundTripAllCatalogs is the tentpole proof: every catalog
// transform on every generated dataset round-trips byte-identically
// (Invert(Apply(db)) == db under the canonical dump) and yields a
// validated, compilable rewritten bias.
func TestRoundTripAllCatalogs(t *testing.T) {
	for _, name := range []string{"uw", "hiv", "imdb", "flt", "sys"} {
		name := name
		t.Run(name, func(t *testing.T) {
			src := source(t, name)
			transforms, err := CatalogFor(name)
			if err != nil {
				t.Fatal(err)
			}
			if name != "sys" && len(transforms) != 3 {
				t.Fatalf("catalog has %d transforms, want 3", len(transforms))
			}
			for _, tr := range transforms {
				v, err := RoundTrip(tr, src)
				if err != nil {
					t.Errorf("%s: %v", tr.Name(), err)
					continue
				}
				if v.DB.Schema().Len() == src.DB.Schema().Len() && !strings.HasPrefix(v.Name, "denorm") {
					t.Errorf("%s: variant schema has the same relation count as the source", tr.Name())
				}
			}
		})
	}
}

// TestRoundTripDoesNotMutateSource pins that Apply leaves the source
// database untouched: the dump before equals the dump after.
func TestRoundTripDoesNotMutateSource(t *testing.T) {
	src := source(t, "uw")
	before := string(Dump(src.DB))
	transforms, _ := CatalogFor("uw")
	for _, tr := range transforms {
		if _, err := tr.Apply(src); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
	}
	if after := string(Dump(src.DB)); after != before {
		t.Fatal("Apply mutated the source database")
	}
}

// TestRoundTripCatchesCorruption proves the proof has teeth: corrupting
// one tuple in a variant makes RoundTrip's byte comparison fail with a
// located diff.
func TestRoundTripCatchesCorruption(t *testing.T) {
	src := source(t, "uw")
	tr := VerticalPartition{Relation: "taughtBy", Split: 1}
	v, err := tr.Apply(src)
	if err != nil {
		t.Fatal(err)
	}
	v.DB.Relation("taughtBy_vp2").Snapshot()[0][1] = "prof_corrupted"
	back, err := v.Invert()
	if err != nil {
		t.Fatal(err)
	}
	want, got := Dump(src.DB), Dump(back)
	if string(want) == string(got) {
		t.Fatal("corrupted variant still round-trips; the proof is vacuous")
	}
	if diff := dumpDiff(want, got); !strings.Contains(diff, "line ") {
		t.Errorf("dumpDiff %q does not locate the divergence", diff)
	}
}

func TestVerticalPartitionModes(t *testing.T) {
	src := source(t, "uw")
	v, err := RoundTrip(VerticalPartition{Relation: "taughtBy", Split: 1}, src)
	if err != nil {
		t.Fatal(err)
	}
	// taughtBy(+,-,-) must become an entry mode on the course fragment
	// and a deref mode on each fragment via the shared surrogate.
	assertModes(t, v, []string{
		"taughtBy_vp1(-,+)",   // entry: lookup by course, emit rid
		"taughtBy_vp1(+,-)",   // deref: rid back to course
		"taughtBy_vp2(+,-,-)", // deref: rid to prof and term
	})
	for _, m := range v.Bias.Modes {
		if m.Relation == "taughtBy" {
			t.Errorf("mode %s survives on the partitioned relation", m)
		}
	}
}

func TestDenormalizeModes(t *testing.T) {
	src := source(t, "imdb")
	v, err := RoundTrip(Denormalize{Left: "genre", On: 0, Right: "movieYear"}, src)
	if err != nil {
		t.Fatal(err)
	}
	// genre(+,#) folds with movieYear's dependent column appended as
	// Output (plain use) and as Constant (from movieYear(+,#)).
	assertModes(t, v, []string{
		"genre_w(+,#,-)",
		"genre_w(+,#,#)",
		"genre_w(-,+,-)",
		"movieYear(+,-)", // the kept right side survives untouched
	})
	if v.DB.Relation("movieYear") == nil {
		t.Error("denormalize dropped the FD right side; the fold would be lossy")
	}
}

func TestJoinDecomposeModes(t *testing.T) {
	src := source(t, "hiv")
	v, err := RoundTrip(JoinDecompose{Relation: "atm", Attr: 2}, src)
	if err != nil {
		t.Fatal(err)
	}
	// atm(-,+,#): the element constant moves into the dictionary
	// (Input ref, Constant value); the main relation emits the ref.
	assertModes(t, v, []string{
		"atm_jd(-,+,-)",
		"atm_dict(+,#)",
		"atm_jd(+,-,-)", // from atm(+,-,-): ref position already Output
		"atm_dict(+,-)", // resolves an emitted ref to its element
	})
	if got := v.DB.Relation("atm_dict").Len(); got < 2 || got > 10 {
		t.Errorf("dictionary has %d entries, want one per distinct element (a handful)", got)
	}
}

func TestTransformErrors(t *testing.T) {
	src := source(t, "uw")
	cases := []struct {
		tr   Transform
		want string
	}{
		{VerticalPartition{Relation: "nope", Split: 1}, "not in schema"},
		{VerticalPartition{Relation: "taughtBy", Split: 0}, "out of range"},
		{VerticalPartition{Relation: "taughtBy", Split: 3}, "out of range"},
		// publication(title,person): joint publications repeat titles, so
		// title can never be a key.
		{Denormalize{Left: "ta", On: 0, Right: "publication"}, "is not a key"},
		{Denormalize{Left: "taughtBy", On: 0, Right: "hasPosition"}, "inclusion violated"},
		{Denormalize{Left: "taughtBy", On: 1, Right: "taughtBy"}, "itself"},
		{JoinDecompose{Relation: "taughtBy", Attr: 5}, "out of range"},
	}
	for _, c := range cases {
		if _, err := c.tr.Apply(src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want mention of %q", c.tr.Name(), err, c.want)
		}
	}
}

func assertModes(t *testing.T, v *Variant, want []string) {
	t.Helper()
	have := make(map[string]bool, len(v.Bias.Modes))
	for _, m := range v.Bias.Modes {
		have[m.String()] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("%s: rewritten bias lacks mode %s; has %v", v.Name, w, v.Bias.Modes)
		}
	}
}
