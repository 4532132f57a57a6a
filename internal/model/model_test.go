package model

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bottom"
	"repro/internal/db"
	"repro/internal/subsume"
)

// testSchema builds the grandparent toy schema used across these tests.
func testSchema(t *testing.T) *db.Schema {
	t.Helper()
	s := db.NewSchema()
	if err := s.Add("parent", "a", "b"); err != nil {
		t.Fatal(err)
	}
	return s
}

// testArtifact builds a small valid artifact over the grandparent toy
// domain.
func testArtifact(t *testing.T) *Artifact {
	t.Helper()
	return &Artifact{
		Version:           Version,
		Target:            "gp",
		TargetAttrs:       []string{"x", "z"},
		Theory:            "gp(X,Z) :- parent(X,Y), parent(Y,Z).",
		Bias:              "parent(T1,T1)\ngp(T1,T1)\nparent(+,-)\n",
		Bottom:            BottomConfig{Strategy: "Naive", Depth: 2, SampleSize: 20, MaxLiterals: 400, Seed: 1},
		Subsume:           SubsumeConfig{MaxNodes: 5000, Seed: 1},
		Symbols:           []string{"", "parent", "gp"},
		SchemaFingerprint: Fingerprint(testSchema(t), "gp", []string{"x", "z"}),
		Data:              DataRef{Dataset: "uw", Scale: 0.1, Seed: 1},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	art := testArtifact(t)
	path := filepath.Join(t.TempDir(), "gp.model")
	if err := art.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum == "" || got.Checksum != art.Checksum {
		t.Fatalf("checksum mismatch after round trip: %q vs %q", got.Checksum, art.Checksum)
	}
	if got.Theory != art.Theory || got.Bias != art.Bias || got.Target != art.Target {
		t.Fatalf("round trip changed content: %+v", got)
	}

	// The embedded theory and bias must survive parse → print → reparse.
	def, err := got.Definition()
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() != 1 || def.Target != "gp" {
		t.Fatalf("theory parsed to %v", def)
	}
	spec, err := got.BiasSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Size() != 3 {
		t.Fatalf("bias parsed to %d defs, want 3", spec.Size())
	}
	bopts, err := got.BottomOptions()
	if err != nil {
		t.Fatal(err)
	}
	if bopts.Strategy != bottom.Naive || bopts.Depth != 2 {
		t.Fatalf("bottom options %+v", bopts)
	}
	if got.SubsumeOptions() != (subsume.Options{MaxNodes: 5000, Seed: 1}) {
		t.Fatalf("subsume options %+v", got.SubsumeOptions())
	}
}

func TestLoadRejectsTampering(t *testing.T) {
	art := testArtifact(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "gp.model")
	if err := art.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-edit the theory without resealing: the checksum must catch it.
	tampered := strings.Replace(string(data), "parent(X,Y)", "parent(Y,X)", 1)
	if tampered == string(data) {
		t.Fatal("tamper replacement did not apply")
	}
	bad := filepath.Join(dir, "tampered.model")
	if err := os.WriteFile(bad, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered artifact loaded: err=%v", err)
	}
}

func TestLoadRejectsVersionSkew(t *testing.T) {
	art := testArtifact(t)
	path := filepath.Join(t.TempDir(), "gp.model")
	if err := art.Save(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = Version + 1
	skewed, _ := json.Marshal(raw)
	bad := filepath.Join(t.TempDir(), "skew.model")
	if err := os.WriteFile(bad, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-skewed artifact loaded: err=%v", err)
	}
}

func TestValidateCatchesBadContent(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Artifact)
	}{
		{"bad theory", func(a *Artifact) { a.Theory = "gp(X,Z) :- " }},
		{"wrong head", func(a *Artifact) { a.Theory = "other(X,Z) :- parent(X,Z)." }},
		{"bad strategy", func(a *Artifact) { a.Bottom.Strategy = "quantum" }},
		{"no target", func(a *Artifact) { a.Target = "" }},
		{"no fingerprint", func(a *Artifact) { a.SchemaFingerprint = "" }},
		{"bad symbol table", func(a *Artifact) { a.Symbols = []string{"parent"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			art := testArtifact(t)
			tc.mutate(art)
			if err := art.Validate(); err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
		})
	}
}

// TestLoadRejectsVersion1: a version-1 artifact — the format that
// carried a training build log, replayed at bind time — is refused, and
// the error tells its holder what to do: those theories were learned
// against order-dependent ground BCs this binary no longer builds. So is
// a version-2 artifact, whose subsumption config still named a restart
// count.
func TestLoadRejectsVersion1(t *testing.T) {
	art := testArtifact(t)
	path := filepath.Join(t.TempDir(), "gp.model")
	if err := art.Save(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	for version, mutate := range map[int]func(raw map[string]any){
		1: func(raw map[string]any) {
			raw["build_log"] = []map[string]any{{"g": false, "e": "gp(a,c)"}, {"g": true, "e": "gp(a,c)"}}
		},
		2: func(raw map[string]any) { raw["subsume"].(map[string]any)["restarts"] = 0 },
	} {
		var raw map[string]any
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		raw["version"] = version
		mutate(raw)
		stale, _ := json.Marshal(raw)
		old := filepath.Join(t.TempDir(), "old.model")
		if err := os.WriteFile(old, stale, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(old)
		if err == nil {
			t.Fatalf("version-%d artifact loaded", version)
		}
		for _, want := range []string{fmt.Sprintf("version %d", version), "re-save", "retrain"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %q", err, want)
			}
		}
		stamped := *art
		stamped.Version = version
		if err := stamped.Validate(); err == nil || !strings.Contains(err.Error(), "retrain") {
			t.Errorf("Validate on a version-%d artifact: %v", version, err)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint(testSchema(t), "gp", []string{"x", "z"})

	// Same inputs → same fingerprint.
	if again := Fingerprint(testSchema(t), "gp", []string{"x", "z"}); again != base {
		t.Fatal("fingerprint is not deterministic")
	}

	// Renamed attribute → different fingerprint.
	s2 := db.NewSchema()
	if err := s2.Add("parent", "a", "c"); err != nil {
		t.Fatal(err)
	}
	if Fingerprint(s2, "gp", []string{"x", "z"}) == base {
		t.Fatal("attribute rename did not change the fingerprint")
	}

	// Extra relation → different fingerprint.
	s3 := testSchema(t)
	if err := s3.Add("sibling", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if Fingerprint(s3, "gp", []string{"x", "z"}) == base {
		t.Fatal("added relation did not change the fingerprint")
	}

	// Different target attrs → different fingerprint.
	if Fingerprint(testSchema(t), "gp", []string{"x", "y"}) == base {
		t.Fatal("target attr change did not change the fingerprint")
	}
}

func TestDataRefKey(t *testing.T) {
	a := DataRef{Dataset: "uw", Scale: 0.1, Seed: 1}
	b := DataRef{Dataset: "uw", Scale: 0.2, Seed: 1}
	c := DataRef{CSVDir: "/data/x"}
	if a.Key() == b.Key() {
		t.Fatal("scale not part of dataset key")
	}
	if a.Key() == c.Key() {
		t.Fatal("dataset and csv refs collide")
	}
	if !(DataRef{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}
